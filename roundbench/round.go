package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/flserve"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// roundTimeout bounds one round, so a hung upload fails the run instead of
// stalling it.
const roundTimeout = 60 * time.Second

// env is one set-up instance of a workload: a loopback flserve.Server
// ingesting through agg.Sharded, and its client sessions.
type env struct {
	wl      *workload
	seed    uint64
	clients int

	srv     *flserve.Server
	agg     *agg.Sharded
	encPool *sched.Pool
	tracer  *tracer // nil when untraced

	// sessions are the clients' persistent connections (re-dialled per
	// round on the delta workload, whose sessions pin a reference epoch).
	sessions []*flserve.Session
	spreads  []spread
	// updates[c] is client c's update buffer, refilled every round.
	updates []*tensor.StateDict
	// ref is the broadcast global the delta workload encodes against.
	ref *delta.Ref

	// streams[c][k] is the ingest workload's pre-encoded update k of
	// client c; round r uploads k = r mod preEncodedPerClient.
	streams [][][]byte
	// encodeStats are the set-up encodes of the pre-encoded workload.
	encodeStats []*core.Stats

	next   int          // next round number
	warmup roundOutcome // the set-up's warm-up round
}

// updateOutcome is one client update of one round.
type updateOutcome struct {
	client     int
	id         uint32
	start, ack time.Time
	stats      *core.Stats // client encode stats; nil for pre-encoded uploads
	rawBytes   int
	err        error
}

// roundOutcome is one round, from the first upload to the barrier.
type roundOutcome struct {
	round   int
	updates []updateOutcome
	// start is the first upload; meanStart/meanEnd bracket Sharded.Mean;
	// end closes the barrier (after delta.Ref.Set on the delta workload).
	start, meanStart, meanEnd, end time.Time
	refSet                         time.Duration
	// cpu is the process CPU time spent from start to end.
	cpu time.Duration
	// checkErr is the mean check's verdict; it fails every update of the
	// round.
	checkErr error
	// traces join the client and server views of each update (traced
	// instances only).
	traces []updateTrace
}

func (o *roundOutcome) failed() int {
	n := 0
	for _, u := range o.updates {
		if u.err != nil || o.checkErr != nil {
			n++
		}
	}
	return n
}

// newEnv sets a workload up: template and buffers, server and sessions,
// pre-encoded updates where the workload uses them, and one warm-up round
// so pools and connections are live before anything is timed.
func newEnv(wl *workload, seed uint64, clients int, traced bool) (*env, error) {
	tmpl, err := wl.template(rngFor(seed, 0))
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, seed: seed, clients: clients, spreads: spreadsOf(tmpl)}
	e.updates = make([]*tensor.StateDict, clients)
	for c := range e.updates {
		e.updates[c] = tmpl.Clone()
	}
	e.encPool = sched.NewPool(clients)
	e.agg = agg.New(agg.Config{Shards: clients, Pool: sched.NewPool(clients)})
	cfg := flserve.Config{Parallel: clients, Ingestor: e.agg}
	if traced {
		e.tracer = newTracer()
		cfg.Ingestor = &tracedIngestor{inner: e.agg, t: e.tracer}
	}
	if wl.mode == deltaEncode {
		e.ref = &delta.Ref{}
		e.ref.Set(tmpl)
		cfg.RefProvider = e.ref.Provider()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.srv = flserve.Serve(ln, cfg)
	e.sessions = make([]*flserve.Session, clients)

	if wl.mode == preEncoded {
		if err := e.preEncode(); err != nil {
			e.close()
			return nil, err
		}
	}
	e.warmup = e.runRound()
	return e, nil
}

// preEncode encodes preEncodedPerClient updates per client.
func (e *env) preEncode() error {
	e.streams = make([][][]byte, e.clients)
	for k := 0; k < preEncodedPerClient; k++ {
		e.prepare(k)
		streams, stats, err := core.CompressAllWith(context.Background(), e.encPool, e.updates, core.Options{LossyParams: lossyParams})
		if err != nil {
			return err
		}
		for c := range streams {
			e.streams[c] = append(e.streams[c], streams[c])
		}
		e.encodeStats = append(e.encodeStats, stats...)
	}
	return nil
}

func (e *env) close() {
	for _, s := range e.sessions {
		if s != nil {
			s.Close()
		}
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// prepare fills every client's update for round r, off the clock. The
// ingest workload regenerates the raw update its round uploads, which the
// mean check needs.
func (e *env) prepare(r int) {
	if e.wl.mode == preEncoded {
		r %= preEncodedPerClient
	}
	var global *tensor.StateDict
	if e.wl.mode == deltaEncode {
		global, _, _ = e.ref.Get()
	}
	var wg sync.WaitGroup
	for c, u := range e.updates {
		wg.Add(1)
		go func(c int, u *tensor.StateDict) {
			defer wg.Done()
			src := rand.NewPCG(e.seed, streamID(r, c))
			if global != nil {
				drift(u, global, e.spreads, src)
			} else {
				refill(u, e.spreads, src)
			}
		}(c, u)
	}
	wg.Wait()
}

// dial opens client c's session for the round; the delta workload
// negotiates the current reference epoch on a fresh connection.
func (e *env) dial(ctx context.Context, c int, epoch uint32) error {
	cl := &flserve.Client{Addr: e.srv.Addr().String()}
	var err error
	if e.wl.mode == deltaEncode {
		if e.sessions[c] != nil {
			e.sessions[c].Close()
		}
		e.sessions[c], err = cl.DialDelta(ctx, epoch)
		return err
	}
	if e.sessions[c] == nil {
		e.sessions[c], err = cl.Dial(ctx)
	}
	return err
}

// upload sends client c's update for round r and waits for its ack.
func (e *env) upload(ctx context.Context, r, c int, global *tensor.StateDict, epoch uint32) updateOutcome {
	u := updateOutcome{client: c, id: uint32(r*e.clients + c)}
	sess := e.sessions[c]
	u.start = time.Now()
	if e.wl.mode == preEncoded {
		u.err = sess.Upload(ctx, u.id, e.streams[c][r%preEncodedPerClient])
	} else {
		// global is nil outside the delta workload: an absolute encode.
		opts := core.Options{LossyParams: lossyParams, Reference: global, RefEpoch: epoch}
		u.stats, u.err = sess.UploadState(ctx, u.id, e.updates[c], opts, e.encPool)
	}
	u.ack = time.Now()
	u.rawBytes = e.updates[c].SizeBytes()
	if u.err == nil && e.wl.mode == deltaEncode {
		u.err = deltaCheck(sess.DeltaAccepted(), u.stats)
	}
	if u.err != nil {
		// The server drops a connection after a failed update; the next
		// round dials afresh.
		sess.Close()
		e.sessions[c] = nil
	}
	return u
}

// runRound plays round e.next: every client uploads concurrently, each
// sending exactly one update and waiting for its ack (the FedAvg barrier),
// then the round's mean is taken, checked and the accumulator reset.
func (e *env) runRound() roundOutcome {
	r := e.next
	e.next++
	o := roundOutcome{round: r, updates: make([]updateOutcome, e.clients)}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()

	e.prepare(r)
	var global *tensor.StateDict
	var epoch uint32
	if e.ref != nil {
		global, epoch, _ = e.ref.Get()
	}
	dialErr := make([]error, e.clients)
	for c := range e.sessions {
		dialErr[c] = e.dial(ctx, c, epoch)
	}

	cpu0 := processCPU()
	o.start = time.Now()
	var wg sync.WaitGroup
	for c := range o.updates {
		if dialErr[c] != nil {
			o.updates[c] = updateOutcome{client: c, id: uint32(r*e.clients + c), start: o.start, ack: o.start, err: dialErr[c]}
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o.updates[c] = e.upload(ctx, r, c, global, epoch)
		}(c)
	}
	wg.Wait()
	if e.tracer != nil {
		for _, u := range o.updates {
			if rec, ok := e.tracer.take(u.id); ok {
				o.traces = append(o.traces, updateTrace{round: r, client: u.client, up: u, srv: rec})
			}
		}
	}
	o.meanStart = time.Now()
	mean, n := e.agg.Mean()
	o.meanEnd = time.Now()
	if e.ref != nil && mean != nil {
		e.ref.Set(mean)
		o.refSet = time.Since(o.meanEnd)
	}
	o.end = time.Now()
	o.cpu = processCPU() - cpu0

	o.checkErr = e.checkRound(r, mean, n, o.updates)
	core.Release(mean)
	e.agg.Reset()
	return o
}

// checkRound compares the round's mean with the exact mean of the raw
// updates the acked clients sent.
func (e *env) checkRound(r int, mean *tensor.StateDict, n int, ups []updateOutcome) error {
	var raws []*tensor.StateDict
	for _, u := range ups {
		if u.err == nil {
			raws = append(raws, e.updates[u.client])
		}
	}
	if len(raws) == 0 {
		return errors.New("no update was acked")
	}
	if err := checkMean(mean, n, raws); err != nil {
		return fmt.Errorf("round %d: %w", r, err)
	}
	return nil
}

// processCPU returns the user plus system CPU time the process has used.
// Inside a round window nothing but the measured clients, server and
// runtime runs, so its growth there is the work the rounds cost.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is the record of the rounds played in one timed window.
type phase struct {
	rounds    []roundOutcome
	elapsed   time.Duration
	snap0     flserve.Stats
	snap1     flserve.Stats
	mem0      memSample
	mem1      memSample
	attempted int
	failed    int
}

// run plays rounds until d has elapsed and at least minUpdates updates
// were sent, or until 3d has elapsed.
func (e *env) run(d time.Duration, minUpdates int) *phase {
	runtime.GC()
	p := &phase{snap0: e.srv.Snapshot(), mem0: readMem()}
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= 3*d || (el >= d && p.attempted >= minUpdates) {
			break
		}
		o := e.runRound()
		p.rounds = append(p.rounds, o)
		p.attempted += len(o.updates)
		p.failed += o.failed()
	}
	p.elapsed = time.Since(start)
	// The runtime's CPU classes advance only at a collection; one here
	// closes the phase's account.
	runtime.GC()
	p.mem1 = readMem()
	p.snap1 = e.srv.Snapshot()
	return p
}
