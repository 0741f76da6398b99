// Package fl implements the federated-learning substrate: FedAvg clients
// and server, round orchestration with pluggable update transports (raw or
// FedSZ-compressed), and per-phase timing — the APPFL/MPI stack of the
// paper replaced by goroutines.
package fl

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/delta"
	"repro/internal/ebcl"
	"repro/internal/flserve"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Transport encodes a client's state dict for the wire and decodes it at
// the server — the seam where FedSZ plugs in. Every method honours ctx
// cancellation (best-effort for the in-memory transports, end-to-end for
// the socket-backed one).
//
// Decoded state dicts are owned by the caller: their tensor buffers may be
// pool-backed. RunRound hands each one to agg.Sharded.Fold, which adopts
// the first as the accumulator and recycles the rest via core.Release.
type Transport interface {
	// Name identifies the transport in experiment output.
	Name() string
	// Encode serializes the update; returns the payload and byte counts
	// (raw, wire) plus the compression time spent.
	Encode(ctx context.Context, sd *tensor.StateDict) (payload []byte, rawBytes int, err error)
	// Decode reverses Encode; the result transfers to the caller.
	Decode(ctx context.Context, payload []byte) (*tensor.StateDict, error)
}

// UploadStats is what one UploadAll round cost.
type UploadStats struct {
	// Encode sums each client's own compress work, socket waits excluded.
	// Decode is the server's decode cost over the round: max(Wall−ReadWait,
	// DecodeWork) of its summed flserve.Stats. Both keep the per-client
	// accounting of paper Figure 6, however the uploads overlapped.
	Encode, Decode time.Duration
	// RawBytes sums the uncompressed update sizes; WireBytes counts the
	// bytes that actually crossed the socket (framing included).
	RawBytes  int
	WireBytes int64
}

// UploadTransport is an optional Transport extension for transports that
// carry a round to a real aggregation server: each state dict compresses
// straight into the upload, and the server folds it into the round's
// accumulator as it arrives, exactly as fedsz-serve does. RunRound
// prefers this over Encode+Decode when available.
type UploadTransport interface {
	Transport
	// UploadAll uploads sds[i] as client i and folds every update into
	// into. The fold order is the arrival order.
	UploadAll(ctx context.Context, sds []*tensor.StateDict, into *agg.Sharded) (*UploadStats, error)
}

// ReferenceTransport is an optional Transport extension for transports that
// can compress cross-round deltas: RunRound hands it the broadcast global
// state at the top of every round, and the transport encodes subsequent
// updates as residuals against that retained reference (the v3 delta stream
// format), falling back to absolute per tensor — or per connection, when
// the receiving end does not hold the reference.
type ReferenceTransport interface {
	Transport
	// SetReference retains sd as the round's encode/decode baseline. The
	// transport copies what it needs; sd remains owned by the caller. Must
	// not be called concurrently with an in-flight round.
	SetReference(sd *tensor.StateDict)
}

// TunableTransport is an optional Transport extension for transports whose
// lossy error bound can be retuned between rounds — the knob the adaptive
// controller (Federation.Controller) turns.
type TunableTransport interface {
	Transport
	// SetLossyParams replaces the error-control parameters used by
	// subsequent Encodes. Must not be called concurrently with an in-flight
	// round.
	SetLossyParams(p ebcl.Params)
}

// RawTransport transmits the uncompressed serialized state dict.
type RawTransport struct{}

// Name implements Transport.
func (RawTransport) Name() string { return "uncompressed" }

// Encode implements Transport.
func (RawTransport) Encode(_ context.Context, sd *tensor.StateDict) ([]byte, int, error) {
	b := sd.Marshal()
	return b, sd.SizeBytes(), nil
}

// Decode implements Transport.
func (RawTransport) Decode(_ context.Context, p []byte) (*tensor.StateDict, error) {
	return tensor.UnmarshalStateDict(p)
}

// FedSZTransport compresses updates with the FedSZ pipeline.
type FedSZTransport struct {
	Opts core.Options
	// Delta enables cross-round delta compression: once RunRound supplies a
	// reference via SetReference, updates encode as v3 residual streams
	// against it and decode against the same retained copy. Set before the
	// first round.
	Delta bool
	// LastStats holds the most recent Encode's pipeline statistics.
	mu        sync.Mutex
	LastStats *core.Stats

	ref delta.Ref
}

// NewFedSZTransport wraps pipeline options as a transport.
func NewFedSZTransport(opts core.Options) *FedSZTransport {
	return &FedSZTransport{Opts: opts}
}

// Name implements Transport.
func (t *FedSZTransport) Name() string { return "fedsz" }

// SetReference implements ReferenceTransport: with Delta set it retains a
// copy of sd as the encode/decode baseline for the round; without Delta it
// is a no-op and the transport keeps emitting absolute streams.
func (t *FedSZTransport) SetReference(sd *tensor.StateDict) {
	if t.Delta {
		t.ref.Set(sd)
	}
}

// SetLossyParams implements TunableTransport.
func (t *FedSZTransport) SetLossyParams(p ebcl.Params) {
	t.mu.Lock()
	t.Opts.LossyParams = p
	t.mu.Unlock()
}

// encodeOpts resolves the options for one Encode, folding in the retained
// delta reference when one is set.
func (t *FedSZTransport) encodeOpts() core.Options {
	t.mu.Lock()
	opts := t.Opts
	t.mu.Unlock()
	if ref, epoch, ok := t.ref.Get(); ok {
		opts.Reference, opts.RefEpoch = ref, epoch
	}
	return opts
}

// decodeOpts mirrors encodeOpts for the server side of the same round.
func (t *FedSZTransport) decodeOpts() core.DecodeOptions {
	if ref, epoch, ok := t.ref.Get(); ok {
		return core.DecodeOptions{Reference: ref, RefEpoch: epoch}
	}
	return core.DecodeOptions{}
}

// Encode implements Transport.
func (t *FedSZTransport) Encode(ctx context.Context, sd *tensor.StateDict) ([]byte, int, error) {
	payload, stats, err := core.CompressWith(ctx, sched.Default(), sd, t.encodeOpts())
	if err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	t.LastStats = stats
	t.mu.Unlock()
	return payload, stats.RawBytes, nil
}

// Decode implements Transport.
func (t *FedSZTransport) Decode(ctx context.Context, p []byte) (*tensor.StateDict, error) {
	sd, _, err := core.DecompressOpts(ctx, sched.Default(), p, t.decodeOpts())
	return sd, err
}

// NetTransport is FedSZTransport carried over real loopback TCP: client
// updates upload to an in-process flserve aggregation server whose
// Ingestor is the round's agg.Sharded, so it decodes each tensor while
// the next is still arriving and folds exactly like fedsz-serve (see
// internal/flserve for the pipelining and backpressure model). Where
// FedSZTransport measures the in-memory path, this transport measures
// the same round end-to-end on sockets — framing, CRC verification,
// kernel buffers, and TCP flow control included.
//
// A round's uploads are multiplexed over a handful of reused connections
// (the flserve multi-update protocol), so dial and prelude cost is paid
// per session, not per client. Each state dict compresses straight into
// its session's wire framer, overlapping encode with send.
type NetTransport struct {
	Opts core.Options
	// Link optionally throttles each client's upload to a constrained
	// uplink (the paper's 10 Mbps edge setting); zero uploads unthrottled.
	Link netsim.Link
	// Sessions is how many connections a round's uploads are multiplexed
	// over (0 selects min(4, clients)). 1 reproduces the strict
	// one-connection-per-round mode.
	Sessions int
	// Timeout and Retries form the per-upload deadline/retry policy passed
	// through to the flserve client (zero values: no per-attempt timeout,
	// no retries).
	Timeout time.Duration
	Retries int
	// Delta enables cross-round delta uploads on the streaming path: once
	// RunRound supplies a reference via SetReference, each session opens
	// with the FLS2 epoch negotiation and — when the server accepts —
	// streams v3 residual encodes; a refused session (or a non-delta
	// server) falls back to absolute uploads on the same connection, so
	// delta clients and plain FLS1 clients interoperate freely. Set before
	// the first round.
	Delta bool
	// LastStats holds the server's ingest counters from the most recent
	// UploadAll, including the decode/receive overlap ratio. It is
	// written only as that call returns; read it after the round, not
	// concurrently with one.
	LastStats flserve.Stats

	ref delta.Ref
}

// NewNetTransport wraps pipeline options as a socket-backed transport.
func NewNetTransport(opts core.Options) *NetTransport {
	return &NetTransport{Opts: opts}
}

// Name implements Transport.
func (t *NetTransport) Name() string { return "fedsz+tcp" }

// SetReference implements ReferenceTransport: with Delta set it retains a
// copy of sd as the round's baseline, served to the ephemeral aggregation
// server via the epoch-checked provider and encoded against on sessions
// whose FLS2 negotiation succeeded. A no-op without Delta.
func (t *NetTransport) SetReference(sd *tensor.StateDict) {
	if t.Delta {
		t.ref.Set(sd)
	}
}

// SetLossyParams implements TunableTransport.
func (t *NetTransport) SetLossyParams(p ebcl.Params) { t.Opts.LossyParams = p }

// uploadOpts resolves the encode options for one session: the retained
// reference rides along only when this session's delta negotiation
// succeeded — the per-connection absolute fallback that keeps a refused (or
// legacy) session wire-compatible.
func (t *NetTransport) uploadOpts(s *flserve.Session) core.Options {
	opts := t.Opts
	if s.DeltaAccepted() {
		if ref, epoch, ok := t.ref.Get(); ok {
			opts.Reference, opts.RefEpoch = ref, epoch
		}
	}
	return opts
}

// Encode implements Transport.
func (t *NetTransport) Encode(ctx context.Context, sd *tensor.StateDict) ([]byte, int, error) {
	payload, stats, err := core.CompressWith(ctx, sched.Default(), sd, t.Opts)
	if err != nil {
		return nil, 0, err
	}
	return payload, stats.RawBytes, nil
}

// Decode implements Transport (the in-memory fallback for single payloads).
func (t *NetTransport) Decode(ctx context.Context, p []byte) (*tensor.StateDict, error) {
	sd, _, err := core.DecompressWith(ctx, sched.Default(), p)
	return sd, err
}

// dial opens one round session: the FLS2 delta negotiation when a
// reference is retained, the plain FLS1 prelude otherwise. A server that
// refuses the negotiation still yields a usable session — uploads just go
// absolute.
func (t *NetTransport) dial(ctx context.Context, c *flserve.Client) (*flserve.Session, error) {
	if t.Delta {
		if _, epoch, ok := t.ref.Get(); ok {
			return c.DialDelta(ctx, epoch)
		}
	}
	return c.Dial(ctx)
}

// UploadAll implements UploadTransport. An ephemeral aggregation server
// ingests into into; updates stripe over the reused sessions (client i
// carries ID i), and each state dict compresses straight into its
// session's wire framer — header and tensor sections hit the socket while
// later tensors are still compressing. With Sessions = 1 the updates fold
// in client order.
func (t *NetTransport) UploadAll(ctx context.Context, sds []*tensor.StateDict, into *agg.Sharded) (*UploadStats, error) {
	n := len(sds)
	var refProvider func(uint32) *tensor.StateDict
	if t.Delta {
		refProvider = t.ref.Provider()
	}
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		UploadTimeout: t.Timeout,
		RefProvider:   refProvider,
		Ingestor:      into,
	})
	if err != nil {
		return nil, err
	}

	sessions := t.Sessions
	if sessions <= 0 {
		sessions = 4
	}
	sessions = min(sessions, n)
	client := &flserve.Client{
		Addr: srv.Addr().String(), Link: t.Link,
		Timeout: t.Timeout, Retries: t.Retries,
	}
	encDurs := make([]time.Duration, n)
	upErrs := make([]error, n)
	var wg sync.WaitGroup
	// Stripe updates over the sessions: session s carries clients s,
	// s+sessions, s+2·sessions, … sequentially over one connection. The
	// client's Timeout/Retries policy applies per update: a transport
	// failure closes the dead session, re-dials, and retries that update
	// with backoff; a server rejection or context end fails it outright
	// (the server drops the connection after any failed update, so the
	// session is re-dialed either way).
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var sess *flserve.Session
			defer func() {
				if sess != nil {
					sess.Close()
				}
			}()
			backoff := client.RetryBackoff
			if backoff <= 0 {
				backoff = 50 * time.Millisecond
			}
			for i := s; i < n; i += sessions {
				var err error
				for try := 0; ; try++ {
					actx, cancel := ctx, context.CancelFunc(func() {})
					if client.Timeout > 0 {
						actx, cancel = context.WithTimeout(ctx, client.Timeout)
					}
					if sess == nil {
						sess, err = t.dial(actx, client)
					}
					if err == nil {
						var st *core.Stats
						if st, err = sess.UploadState(actx, uint32(i), sds[i], t.uploadOpts(sess), sched.Default()); err == nil {
							// The client's own compress cost, socket waits excluded.
							encDurs[i] = max(st.CompressTime-st.WriteWait, st.EncodeWork)
						}
					}
					cancel()
					if err == nil {
						break
					}
					// Any failure leaves the connection unusable.
					if sess != nil {
						sess.Close()
						sess = nil
					}
					if errors.Is(err, flserve.ErrRejected) || ctx.Err() != nil || try >= client.Retries {
						break
					}
					select {
					case <-time.After(backoff):
					case <-ctx.Done():
					}
					backoff *= 2
				}
				if upErrs[i] = err; err != nil {
					// Fail this stripe's remaining clients rather than keep
					// re-dialing into a presumably broken round.
					for j := i + sessions; j < n; j += sessions {
						upErrs[j] = fmt.Errorf("fl: session aborted by client %d failure", i)
					}
					return
				}
			}
		}(s)
	}
	wg.Wait()
	closeErr := srv.Close()
	for i, err := range upErrs {
		if err != nil {
			return nil, fmt.Errorf("fl: net upload client %d: %w", i, err)
		}
	}
	if closeErr != nil {
		return nil, closeErr
	}
	t.LastStats = srv.Snapshot()
	st := &UploadStats{
		Decode:    max(t.LastStats.Wall-t.LastStats.ReadWait, t.LastStats.DecodeWork),
		WireBytes: t.LastStats.WireBytes,
	}
	for i, sd := range sds {
		st.Encode += encDurs[i]
		st.RawBytes += sd.SizeBytes()
	}
	return st, nil
}

// Client is one FedAvg participant: a local model, a data shard, and an
// SGD optimizer.
type Client struct {
	ID        int
	Net       *nn.Network
	Data      *dataset.Dataset
	BatchSize int
	Opt       *nn.SGD
	rng       *rand.Rand
}

// NewClient constructs a client around an existing network.
func NewClient(id int, net *nn.Network, data *dataset.Dataset, batchSize int, lr float64, seed uint64) *Client {
	return &Client{
		ID: id, Net: net, Data: data, BatchSize: batchSize,
		Opt: nn.NewSGD(lr, 0.9, 5e-4),
		rng: rand.New(rand.NewPCG(seed, uint64(id)+1)),
	}
}

// TrainEpochs runs local SGD for the given epoch count and returns the
// final mean loss.
func (c *Client) TrainEpochs(epochs int) float64 {
	var lastLoss float64
	n := c.Data.Len()
	for e := 0; e < epochs; e++ {
		perm := c.rng.Perm(n)
		var epochLoss float64
		batches := 0
		for lo := 0; lo+c.BatchSize <= n; lo += c.BatchSize {
			x, labels := batchByIndex(c.Data, perm[lo:lo+c.BatchSize])
			c.Net.ZeroGrads()
			logits := c.Net.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
			c.Net.Backward(grad)
			c.Opt.Step(c.Net.Params())
			epochLoss += loss
			batches++
		}
		if batches > 0 {
			lastLoss = epochLoss / float64(batches)
		}
	}
	return lastLoss
}

func batchByIndex(d *dataset.Dataset, idx []int) (*tensor.Tensor, []int) {
	c, h, w := d.Spec.Channels, d.Spec.Height, d.Spec.Width
	plane := c * h * w
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	for i, s := range idx {
		copy(x.Data[i*plane:(i+1)*plane], d.X.Data[s*plane:(s+1)*plane])
		labels[i] = d.Labels[s]
	}
	return x, labels
}

// RoundTimings breaks a communication round into the phases of paper
// Figure 6.
type RoundTimings struct {
	Train    time.Duration // max over clients (they run in parallel)
	Compress time.Duration // sum of client Encode times
	// Decompress sums each client payload's own decode time — the
	// per-client accounting of paper Figure 6, regardless of how the
	// server parallelizes the batch (UploadStats.Decode for an
	// UploadTransport).
	Decompress time.Duration
	// DecompressWall is the wall-clock of the server-side decode +
	// aggregate phase (upload included for an UploadTransport); on a
	// multicore server it is smaller than Decompress.
	DecompressWall time.Duration
	Validate       time.Duration
}

// RoundResult reports one FedAvg communication round.
type RoundResult struct {
	Round     int
	Loss      float64 // mean client training loss
	Accuracy  float64 // server-side validation accuracy
	RawBytes  int     // total uncompressed update bytes (all clients)
	WireBytes int     // total transmitted bytes (all clients)
	Timings   RoundTimings
}

// Federation owns a global model and a set of clients.
type Federation struct {
	Global    *nn.Network
	Clients   []*Client
	Transport Transport
	Test      *dataset.Dataset
	EvalBatch int

	// Tracer, when non-nil, receives one "round" summary event per
	// RunRound with the loss/accuracy/bytes/phase-duration breakdown.
	Tracer *telemetry.Tracer

	// Controller, when non-nil, closes the loop on the transport's lossy
	// error bound: after each round's evaluation it observes the wire bytes
	// and accuracy and retunes the bound toward its byte budget or accuracy
	// floor, applying the adjustment through TunableTransport (transports
	// that do not implement it leave the controller inert). Each decision
	// is traced as a "controller" event.
	Controller *delta.Controller

	// agg is the round's FedAvg fold, reset every round. mean is the
	// scratch its MeanInto fills and LoadStateDict copies out of, so
	// holding both across rounds is safe.
	agg  *agg.Sharded
	mean *tensor.StateDict
}

// NewFederation wires a federation together. All client networks must be
// structurally identical to the global network.
func NewFederation(global *nn.Network, clients []*Client, transport Transport, test *dataset.Dataset) *Federation {
	return &Federation{Global: global, Clients: clients, Transport: transport, Test: test, EvalBatch: 64}
}

// RunRound executes one FedAvg round: broadcast → parallel local training →
// transport-encoded upload → aggregation → validation. Cancelling ctx
// aborts the round between phases and inside the transport calls.
func (f *Federation) RunRound(ctx context.Context, round, localEpochs int) (*RoundResult, error) {
	res := &RoundResult{Round: round}
	globalState := f.Global.StateDict()
	if rt, ok := f.Transport.(ReferenceTransport); ok {
		// The state every client trains from this round is the delta
		// baseline both ends encode and decode against.
		rt.SetReference(globalState)
	}
	uploader, uploads := f.Transport.(UploadTransport)

	type clientOut struct {
		payload  []byte
		state    *tensor.StateDict
		raw      int
		loss     float64
		trainDur time.Duration
		encDur   time.Duration
		err      error
	}
	outs := make([]clientOut, len(f.Clients))
	var wg sync.WaitGroup
	for i, c := range f.Clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if err := c.Net.LoadStateDict(globalState); err != nil {
				outs[i].err = err
				return
			}
			t0 := time.Now()
			outs[i].loss = c.TrainEpochs(localEpochs)
			outs[i].trainDur = time.Since(t0)
			if uploads {
				// An uploading transport fuses encode with upload; the
				// client hands over its state dict instead of a payload.
				outs[i].state = c.Net.StateDict()
				return
			}
			t0 = time.Now()
			payload, raw, err := f.Transport.Encode(ctx, c.Net.StateDict())
			outs[i].encDur = time.Since(t0)
			outs[i].payload, outs[i].raw, outs[i].err = payload, raw, err
		}(i, c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	payloads := make([][]byte, len(outs))
	states := make([]*tensor.StateDict, len(outs))
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, fmt.Errorf("fl: client %d: %w", i, o.err)
		}
		payloads[i] = o.payload
		states[i] = o.state
		res.Loss += o.loss / float64(len(f.Clients))
		res.RawBytes += o.raw
		res.WireBytes += len(o.payload)
		if o.trainDur > res.Timings.Train {
			res.Timings.Train = o.trainDur
		}
		res.Timings.Compress += o.encDur
	}

	// Server-side decode + FedAvg fold through agg.Sharded, the one fold
	// every server uses.
	if f.agg == nil {
		f.agg = agg.New(agg.Config{DedupByClient: true})
	}
	f.agg.Reset()
	t0 := time.Now()
	if uploads {
		st, err := uploader.UploadAll(ctx, states, f.agg)
		if err != nil {
			return nil, fmt.Errorf("fl: upload round: %w", err)
		}
		res.RawBytes += st.RawBytes
		res.WireBytes += int(st.WireBytes)
		res.Timings.Compress += st.Encode
		res.Timings.Decompress = st.Decode
	} else {
		d, err := f.decodeFold(ctx, payloads)
		if err != nil {
			return nil, err
		}
		res.Timings.Decompress = d
	}
	mean, n, err := f.agg.MeanInto(f.mean)
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	if n != len(f.Clients) {
		return nil, fmt.Errorf("fl: folded %d of %d client updates", n, len(f.Clients))
	}
	f.mean = mean
	res.Timings.DecompressWall = time.Since(t0)
	if err := f.Global.LoadStateDict(mean); err != nil {
		return nil, err
	}

	t0 = time.Now()
	res.Accuracy = f.Evaluate()
	res.Timings.Validate = time.Since(t0)

	if f.Controller != nil {
		if tt, ok := f.Transport.(TunableTransport); ok {
			adj := f.Controller.Observe(res.WireBytes, res.Accuracy)
			if adj.Changed {
				tt.SetLossyParams(f.Controller.Params())
			}
			f.Tracer.Event("controller",
				telemetry.A("round", res.Round),
				telemetry.A("reason", adj.Reason),
				telemetry.A("changed", adj.Changed),
				telemetry.A("old_bound", adj.Old),
				telemetry.A("new_bound", adj.New),
				telemetry.A("wire_bytes", res.WireBytes),
				telemetry.A("accuracy", res.Accuracy),
			)
		}
	}
	f.Tracer.Event("round",
		telemetry.A("round", res.Round),
		telemetry.A("transport", f.Transport.Name()),
		telemetry.A("loss", res.Loss),
		telemetry.A("accuracy", res.Accuracy),
		telemetry.A("raw_bytes", res.RawBytes),
		telemetry.A("wire_bytes", res.WireBytes),
		telemetry.A("train_us", res.Timings.Train.Microseconds()),
		telemetry.A("compress_us", res.Timings.Compress.Microseconds()),
		telemetry.A("decompress_us", res.Timings.Decompress.Microseconds()),
		telemetry.A("decompress_wall_us", res.Timings.DecompressWall.Microseconds()),
		telemetry.A("validate_us", res.Timings.Validate.Microseconds()),
	)
	return res, nil
}

// decodeFold decodes payloads chunk-wise, each chunk concurrently on the
// shared pool (the nesting core.DecompressAllOpts uses), and folds the
// chunk in client order before the next one decodes, so peak memory stays
// O(chunk × model) rather than O(clients × model). It returns the summed
// per-payload decode time.
func (f *Federation) decodeFold(ctx context.Context, payloads [][]byte) (time.Duration, error) {
	pool := sched.Default()
	chunk := 2 * runtime.GOMAXPROCS(0)
	sds := make([]*tensor.StateDict, chunk)
	durs := make([]time.Duration, chunk)
	errs := make([]error, chunk)
	var total time.Duration
	for lo := 0; lo < len(payloads); lo += chunk {
		hi := min(lo+chunk, len(payloads))
		cerr := pool.ForEachCtx(ctx, hi-lo, func(i int) {
			t0 := time.Now()
			sds[i], errs[i] = f.Transport.Decode(ctx, payloads[lo+i])
			durs[i] = time.Since(t0)
		})
		for i := 0; i < hi-lo; i++ {
			err := cerr
			if err == nil && errs[i] != nil {
				err = fmt.Errorf("fl: decode client %d: %w", lo+i, errs[i])
			}
			if err == nil {
				if err = f.agg.Fold(uint32(lo+i), 1, sds[i]); err != nil {
					err = fmt.Errorf("fl: aggregate client %d: %w", lo+i, err)
				}
			}
			if err != nil {
				// Fold owns only what it accepted; recycle the rest.
				for _, sd := range sds[i : hi-lo] {
					core.Release(sd)
				}
				return 0, err
			}
			total += durs[i]
			payloads[lo+i] = nil
		}
		clear(sds)
	}
	return total, nil
}

// Evaluate computes global-model top-1 accuracy on the test set.
func (f *Federation) Evaluate() float64 {
	n := f.Test.Len()
	correct := 0.0
	for lo := 0; lo < n; lo += f.EvalBatch {
		hi := min(lo+f.EvalBatch, n)
		x, labels := f.Test.Batch(lo, hi)
		logits := f.Global.Forward(x, false)
		correct += nn.Accuracy(logits, labels) * float64(hi-lo)
	}
	return correct / float64(n)
}

// Run executes rounds communication rounds and returns per-round results.
// Cancelling ctx stops after the in-flight round.
func (f *Federation) Run(ctx context.Context, rounds, localEpochs int) ([]*RoundResult, error) {
	out := make([]*RoundResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		res, err := f.RunRound(ctx, r, localEpochs)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
