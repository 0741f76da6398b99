// Package fl implements the federated-learning substrate: FedAvg clients
// and server, round orchestration with pluggable update transports (raw or
// FedSZ-compressed), and per-phase timing — the APPFL/MPI stack of the
// paper replaced by goroutines.
package fl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

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
	"repro/internal/wire"
)

// Transport encodes a client's state dict for the wire and decodes it at
// the server — the seam where FedSZ plugs in. Every method honours ctx
// cancellation (best-effort for the in-memory transports, end-to-end for
// the socket-backed one).
//
// Decoded state dicts are owned by the caller: their tensor buffers may be
// pool-backed, and a caller that folds a decoded dict and discards it may
// recycle the storage via core.Release — the steady-state zero-allocation
// path RunRound takes.
type Transport interface {
	// Name identifies the transport in experiment output.
	Name() string
	// Encode serializes the update; returns the payload and byte counts
	// (raw, wire) plus the compression time spent.
	Encode(ctx context.Context, sd *tensor.StateDict) (payload []byte, rawBytes int, err error)
	// Decode reverses Encode; the result transfers to the caller.
	Decode(ctx context.Context, payload []byte) (*tensor.StateDict, error)
}

// BatchTransport is an optional Transport extension: a server-side decoder
// that ingests a whole round of client payloads under one parallelism
// budget. RunRound uses it when available instead of per-payload Decode.
type BatchTransport interface {
	Transport
	// DecodeAll decodes payload i into result i; results must be
	// identical to calling Decode on each payload. The returned durations
	// report each payload's own decode time (summed, they reproduce the
	// serial per-client cost the paper's Figure 6 accounts).
	DecodeAll(ctx context.Context, payloads [][]byte) ([]*tensor.StateDict, []time.Duration, error)
}

// StreamRound is what one fused encode+upload+decode pass over a batch of
// client updates produced.
type StreamRound struct {
	// Decoded holds the server-side decoded dicts, index-aligned with the
	// input state dicts.
	Decoded []*tensor.StateDict
	// EncodeDur and DecodeDur report each client's own compress/decode
	// work, socket waits excluded — the per-client accounting of paper
	// Figure 6 regardless of how uploads and decodes overlapped.
	EncodeDur []time.Duration
	DecodeDur []time.Duration
	// RawBytes sums the uncompressed update sizes; WireBytes counts the
	// bytes that actually crossed the socket (framing included).
	RawBytes  int
	WireBytes int64
}

// StreamBatchTransport is an optional Transport extension for transports
// that can fuse client-side encode with the upload itself: each state
// dict compresses section-by-section straight into the transport — no
// intermediate whole-stream payload — while the server decodes it as it
// arrives. RunRound prefers this over Encode+DecodeAll when available.
type StreamBatchTransport interface {
	Transport
	// EncodeUploadAll streams every state dict through the transport and
	// returns the server-decoded results in input order. Results must be
	// bit-identical to Decode(Encode(sd)).
	EncodeUploadAll(ctx context.Context, sds []*tensor.StateDict) (*StreamRound, error)
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
	// Parallel is the server-side decode budget shared across a round's
	// batch (0 selects GOMAXPROCS).
	Parallel int
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

// DecodeAll implements BatchTransport: the whole round's payloads decode
// under one shared parallelism budget.
func (t *FedSZTransport) DecodeAll(ctx context.Context, payloads [][]byte) ([]*tensor.StateDict, []time.Duration, error) {
	sds, stats, err := core.DecompressAllOpts(ctx, sched.NewPool(t.Parallel), payloads, t.decodeOpts())
	if err != nil {
		return nil, nil, err
	}
	durs := make([]time.Duration, len(stats))
	for i, s := range stats {
		durs[i] = s.DecompressTime
	}
	return sds, durs, nil
}

// NetTransport is FedSZTransport carried over real loopback TCP: client
// updates upload to an in-process flserve aggregation server, which
// decodes each tensor while the next is still arriving (see
// internal/flserve for the pipelining and backpressure model). Where
// FedSZTransport.DecodeAll measures the batched in-memory path, this
// transport measures the same round end-to-end on sockets — framing,
// CRC verification, kernel buffers, and TCP flow control included.
//
// A round's uploads are multiplexed over a handful of reused connections
// (the flserve multi-update protocol), so dial and prelude cost is paid
// per session, not per client. Through EncodeUploadAll the transport also
// fuses the client-side encode into the upload: each state dict
// compresses straight into its session's wire framer, overlapping encode
// with send.
type NetTransport struct {
	Opts core.Options
	// Parallel is the server-side decode budget (0 selects GOMAXPROCS).
	Parallel int
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
	// batch call, including the decode/receive overlap ratio. It is
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

// roundCollector is netRound's StreamIngestor: it decodes each whole
// update on the round's pool (wire de-framing into core.DecompressFromOpts,
// then the trailer drained so an update is acked only after its
// whole-stream CRC verified) and keeps the dict by client ID — the
// BatchTransport contract's per-client dicts, bit-identical to an
// in-memory decode of the same payload.
type roundCollector struct {
	pool    *sched.Pool
	mu      sync.Mutex
	results []*tensor.StateDict
	durs    []time.Duration
}

func (c *roundCollector) IngestStream(ctx context.Context, client uint32, _ float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	wr := wire.NewReader(r)
	defer wr.Close()
	sd, st, err := core.DecompressFromOpts(ctx, c.pool, wr, dopts)
	if err != nil {
		return 0, core.DecompressStats{}, err
	}
	if _, err := io.Copy(io.Discard, wr); err != nil {
		core.Release(sd)
		return 0, core.DecompressStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case int(client) >= len(c.results):
		core.Release(sd)
		return 0, core.DecompressStats{}, fmt.Errorf("fl: unexpected client id %d", client)
	case c.results[client] != nil:
		// A retry after a lost ack re-delivers an already-folded update;
		// keep the first result (uploads are at-least-once) and recycle
		// the duplicate's decode buffers.
		core.Release(sd)
	default:
		c.results[client] = sd
		d := st.DecompressTime - st.ReadWait
		if d < st.DecodeWork {
			d = st.DecodeWork
		}
		c.durs[client] = d
	}
	return wr.WireBytes(), *st, nil
}

// netRound is the shared server+session scaffolding behind DecodeAll and
// EncodeUploadAll: an ephemeral aggregation server, a roundCollector
// keeping results by client ID, and n updates multiplexed over a few
// reused sessions. upload sends update i on its session.
func (t *NetTransport) netRound(ctx context.Context, n int, upload func(ctx context.Context, s *flserve.Session, i int) error) ([]*tensor.StateDict, []time.Duration, error) {
	col := &roundCollector{
		pool:    sched.NewPool(t.Parallel),
		results: make([]*tensor.StateDict, n),
		durs:    make([]time.Duration, n),
	}
	var refProvider func(uint32) *tensor.StateDict
	if t.Delta {
		refProvider = t.ref.Provider()
	}
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		UploadTimeout: t.Timeout,
		RefProvider:   refProvider,
		Ingestor:      col,
	})
	if err != nil {
		return nil, nil, err
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
						err = upload(actx, sess, i)
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
			return nil, nil, fmt.Errorf("fl: net upload client %d: %w", i, err)
		}
	}
	if closeErr != nil {
		return nil, nil, closeErr
	}
	for i, sd := range col.results {
		if sd == nil {
			return nil, nil, fmt.Errorf("fl: client %d update never arrived", i)
		}
	}
	t.LastStats = srv.Snapshot()
	return col.results, col.durs, nil
}

// DecodeAll implements BatchTransport: pre-compressed payloads upload over
// the reused sessions (client i carries ID i) and the decoded dicts return
// in payload order, bit-identical to Decode on each payload. The returned
// durations report each payload's own decode cost (wall clock minus time
// blocked on the socket), preserving the per-client accounting of paper
// Figure 6.
func (t *NetTransport) DecodeAll(ctx context.Context, payloads [][]byte) ([]*tensor.StateDict, []time.Duration, error) {
	return t.netRound(ctx, len(payloads), func(ctx context.Context, s *flserve.Session, i int) error {
		return s.Upload(ctx, uint32(i), payloads[i])
	})
}

// EncodeUploadAll implements StreamBatchTransport: each state dict
// compresses straight into its session's wire framer — header and tensor
// sections hit the socket while later tensors are still compressing — so
// no client ever materializes its whole compressed stream. Decoded
// results are bit-identical to the in-memory pipeline's.
func (t *NetTransport) EncodeUploadAll(ctx context.Context, sds []*tensor.StateDict) (*StreamRound, error) {
	encDurs := make([]time.Duration, len(sds))
	rawBytes := 0
	for _, sd := range sds {
		rawBytes += sd.SizeBytes()
	}
	decoded, decDurs, err := t.netRound(ctx, len(sds), func(ctx context.Context, s *flserve.Session, i int) error {
		stats, err := s.UploadState(ctx, uint32(i), sds[i], t.uploadOpts(s), sched.Default())
		if err != nil {
			return err
		}
		// The client's own compress cost, socket waits excluded — the
		// encode-side mirror of the decode duration derivation.
		d := stats.CompressTime - stats.WriteWait
		if d < stats.EncodeWork {
			d = stats.EncodeWork
		}
		encDurs[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &StreamRound{
		Decoded:   decoded,
		EncodeDur: encDurs,
		DecodeDur: decDurs,
		RawBytes:  rawBytes,
		WireBytes: t.LastStats.WireBytes,
	}, nil
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
	// server parallelizes the batch.
	Decompress time.Duration
	// DecompressWall is the wall-clock of the server-side decode +
	// aggregate phase; with a BatchTransport on a multicore server it is
	// smaller than Decompress.
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

	// acc is the FedAvg accumulator, pooled on first use and rezeroed in
	// place every subsequent round (LoadStateDict copies out of it, so
	// holding it across rounds is safe).
	acc *tensor.StateDict
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
	_, streaming := f.Transport.(StreamBatchTransport)

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
			if streaming {
				// A streaming transport fuses encode with upload; the
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

	// Server-side decode + FedAvg aggregation in deterministic client
	// order, chunk-wise so each chunk is folded into the accumulator and
	// released before the next decodes — peak memory stays O(chunk × model)
	// rather than O(clients × model). A StreamBatchTransport additionally
	// fuses the encode into each chunk's upload; a BatchTransport decodes
	// pre-encoded payloads under one shared parallelism budget.
	if f.acc != nil {
		// A retained accumulator that no longer matches the model means the
		// global network changed structure mid-federation — a bug ZeroInto's
		// silent reallocation would paper over (stale pooled buffers, wrong
		// aggregation). Fail loudly instead.
		if err := f.acc.CheckCompatible(globalState); err != nil {
			return nil, fmt.Errorf("fl: accumulator incompatible with global model: %w", err)
		}
	}
	f.acc = globalState.ZeroInto(f.acc)
	acc := f.acc
	weight := 1 / float32(len(f.Clients))
	chunk := 2 * runtime.GOMAXPROCS(0)
	t0 := time.Now()
	switch tr := f.Transport.(type) {
	case StreamBatchTransport:
		for lo := 0; lo < len(states); lo += chunk {
			hi := min(lo+chunk, len(states))
			sr, err := tr.EncodeUploadAll(ctx, states[lo:hi])
			if err != nil {
				return nil, fmt.Errorf("fl: stream round clients %d-%d: %w", lo, hi-1, err)
			}
			res.RawBytes += sr.RawBytes
			res.WireBytes += int(sr.WireBytes)
			for _, d := range sr.EncodeDur {
				res.Timings.Compress += d
			}
			for _, d := range sr.DecodeDur {
				res.Timings.Decompress += d
			}
			for i, sd := range sr.Decoded {
				if err := acc.AddScaled(sd, weight); err != nil {
					return nil, fmt.Errorf("fl: aggregate client %d: %w", lo+i, err)
				}
				// Folded and dead: hand the decode buffers back to the pool
				// so the next chunk's decodes reuse them.
				core.Release(sd)
				states[lo+i] = nil
			}
		}
	case BatchTransport:
		for lo := 0; lo < len(payloads); lo += chunk {
			hi := min(lo+chunk, len(payloads))
			sds, durs, err := tr.DecodeAll(ctx, payloads[lo:hi])
			if err != nil {
				return nil, fmt.Errorf("fl: batch decode clients %d-%d: %w", lo, hi-1, err)
			}
			for _, d := range durs {
				res.Timings.Decompress += d
			}
			for i, sd := range sds {
				if err := acc.AddScaled(sd, weight); err != nil {
					return nil, fmt.Errorf("fl: aggregate client %d: %w", lo+i, err)
				}
				core.Release(sd)
				payloads[lo+i] = nil
			}
		}
	default:
		for i, p := range payloads {
			t1 := time.Now()
			sd, err := f.Transport.Decode(ctx, p)
			res.Timings.Decompress += time.Since(t1)
			if err != nil {
				return nil, fmt.Errorf("fl: decode client %d: %w", i, err)
			}
			if err := acc.AddScaled(sd, weight); err != nil {
				return nil, fmt.Errorf("fl: aggregate client %d: %w", i, err)
			}
			core.Release(sd)
			payloads[i] = nil
		}
	}
	res.Timings.DecompressWall = time.Since(t0)
	if err := f.Global.LoadStateDict(acc); err != nil {
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
