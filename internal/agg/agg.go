// Package agg implements the server-side FedAvg fold: a sharded,
// hierarchical aggregation tier that every flserve.Server ingests through.
//
// # Section-sharded fold
//
// The wire format frames a FedSZ stream at section granularity, so an
// ingest front-end can route each tensor section to an aggregator shard
// without decoding — only the small per-section metadata (name, shape,
// mode byte) is parsed on the connection goroutine. Sharded routes every
// tensor to one of P shards keyed by a hash of the tensor name, decodes
// routed sections on the shared sched.Pool (the same caller-runs budget
// discipline as the whole-stream decoder, so saturation still turns into
// TCP backpressure), and each shard folds its slice of the FedAvg
// accumulator. A tensor name lives on exactly one shard, so the root
// merge is pure concatenation in the model's original entry order — no
// cross-shard float addition.
//
// # Fold semantics and conformance
//
// An update is staged first and folded only after its wire trailer
// verifies, so a mid-stream corruption never half-folds into the
// accumulator. Sequential ingest at weight 1 is bit-for-bit identical to
// the textbook fold of the decoded updates: the first update is adopted
// (not added), later updates fold with the same a[i] += w·b[i] kernel as
// StateDict.AddScaled in arrival order, and the mean is one final
// float32 divide. Under concurrent ingest only the per-tensor fold order
// can differ, which reassociates float addition; the conformance tests
// bound that difference (see TestShardedConformance).
//
// # In-memory fold
//
// Fold takes an update that is already decoded, as in fl.RunRound's
// in-memory rounds. The whole dict takes the lossless partition's path,
// unrouted, through the same commit, so sequential Folds at weight 1 meet
// the same adopt-first oracle bit for bit. Between Resets an accumulator
// takes either Folds or streams: the two define different layouts.
//
// # Hierarchical topology
//
// An edge is a flserve.Server folding its local population through a
// Sharded; Forward then sends ONE fused, weighted (FLS3) update upstream,
// so a root folding E edges at weights n_1..n_E computes the same
// weighted mean as a flat fold of Σn_i clients — up to float
// reassociation and the one extra lossy encode of each edge's fused mean.
package agg

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flserve"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Config tunes a Sharded aggregator.
type Config struct {
	// Shards is P, the number of accumulator shards (0 selects 1).
	Shards int
	// Pool supplies decode parallelism (nil selects the process-wide
	// shared pool): every connection's routed sections decode under this
	// one budget, and Forward encodes on it.
	Pool *sched.Pool
	// DedupByClient folds only the first update per client ID and silently
	// accepts (acks, drains, drops) later duplicates — the at-least-once
	// delivery guard for a single-round aggregation, where a retried
	// upload must not double-weight its client. Leave false when one
	// client legitimately contributes several updates.
	DedupByClient bool
}

// shard is one slice of the accumulator: the tensors whose name hashes
// here. Only commit and Mean touch acc, both under Sharded.mu.
type shard struct {
	acc map[string]*tensor.Tensor
}

// lossyMeta pins a lossy tensor's identity from the first update, so
// later updates are validated against it before anything folds.
type lossyMeta struct {
	name  string
	kind  tensor.Kind
	shape []int
	elems int
	shard int
}

// layout is the stream structure the first committed update defines:
// every later update must match it exactly, mirroring the structural
// strictness of StateDict.AddScaled.
type layout struct {
	flags []byte
	lossy []lossyMeta
}

// Sharded is a section-routing FedAvg aggregator implementing
// flserve.StreamIngestor. Zero value is not usable; construct with New.
type Sharded struct {
	cfg    Config
	pool   *sched.Pool
	shards []shard

	mu sync.Mutex
	// structure is the layout adopted from the first committed update.
	structure *layout
	// meta is the lossless-partition accumulator (heap-backed).
	meta *tensor.StateDict
	// sumView assembles the sharded accumulator slices and meta entries
	// into one StateDict in original entry order — the tensors alias the
	// shard buffers, so folds are visible through it.
	sumView *tensor.StateDict
	n       int
	wsum    float64
	seen    map[uint32]bool
}

// New builds a Sharded aggregator.
func New(cfg Config) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Default()
	}
	s := &Sharded{cfg: cfg, pool: pool, shards: make([]shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i].acc = make(map[string]*tensor.Tensor)
	}
	metrics().shards.Set(float64(cfg.Shards))
	return s
}

// Shards returns the configured shard count P.
func (s *Sharded) Shards() int { return len(s.shards) }

// shardOf routes a tensor name to its owning shard (FNV-1a).
func (s *Sharded) shardOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// staged is one routed tensor between decode and commit.
type staged struct {
	meta lossyMeta
	data []float32 // pooled; owned by the update until commit or abort
	err  error
}

// readTracker accumulates time blocked in Read — the ReadWait component
// of the decode stats, mirroring the whole-stream decoder's accounting.
type readTracker struct {
	r       io.Reader
	blocked time.Duration
}

func (t *readTracker) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.blocked += time.Since(t0)
	return n, err
}

// IngestStream consumes one wire-framed update from r, routing each
// tensor section to its shard: the flserve.StreamIngestor contract. The
// update folds atomically — staged through the trailer check, then
// committed — and the returned stats carry wall/read-wait/decode-work
// timings for the server's overlap accounting.
func (s *Sharded) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	start := time.Now()
	recycled0 := sched.RecycledBytes()
	m := metrics()

	tr := &readTracker{r: r}
	sc := wire.NewFrameScanner(tr)

	// Duplicate from a retried at-least-once upload: consume and verify
	// the stream (protocol stays in sync, trailer still checked) but fold
	// nothing.
	if s.cfg.DedupByClient && s.isDup(client) {
		if err := drain(sc); err != nil {
			return 0, core.DecompressStats{}, err
		}
		return sc.WireBytes(), core.DecompressStats{DecompressTime: time.Since(start), ReadWait: tr.blocked}, nil
	}

	kind, payload, err := sc.Next()
	if err != nil {
		return 0, core.DecompressStats{}, err
	}
	if kind != wire.FrameHeader {
		sched.PutBytes(payload)
		return 0, core.DecompressStats{}, fmt.Errorf("%w: agg: first frame kind 0x%02x, want header", core.ErrCorrupt, kind)
	}
	hdr, err := core.ParseHeader(payload)
	sched.PutBytes(payload) // hdr owns its fields
	if err != nil {
		return 0, core.DecompressStats{}, err
	}
	dec, err := core.NewSectionDecoder(hdr, dopts)
	if err != nil {
		return 0, core.DecompressStats{}, err
	}

	// structure, when already adopted, validates each section at routing
	// time; a first update is validated wholesale at commit instead.
	structure := s.currentStructure()
	if structure != nil && !bytesEqual(structure.flags, hdr.Flags) {
		return 0, core.DecompressStats{}, fmt.Errorf("%w: agg: update path flags differ from accumulator", core.ErrCorrupt)
	}

	entries := make([]staged, hdr.LossyCount)
	var decodeWork atomicDuration
	var metaDict *tensor.StateDict
	var metaErr error
	nDelta := 0
	g := s.pool.Group()
	// abort drains in-flight decodes and releases every staged buffer.
	abort := func(err error) (int64, core.DecompressStats, error) {
		g.Wait()
		for i := range entries {
			if entries[i].data != nil {
				sched.PutFloats(entries[i].data)
				entries[i].data = nil
			}
		}
		metaDict = nil
		if cerr := ctx.Err(); cerr != nil {
			return 0, core.DecompressStats{}, cerr
		}
		return 0, core.DecompressStats{}, err
	}

	for i := 0; i < hdr.LossyCount; i++ {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		kind, payload, err := sc.Next()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("%w: agg: stream ended after %d of %d tensor sections", core.ErrCorrupt, i, hdr.LossyCount)
			}
			return abort(err)
		}
		if kind != wire.FrameTensor {
			sched.PutBytes(payload)
			return abort(fmt.Errorf("%w: agg: frame kind 0x%02x, want tensor", core.ErrCorrupt, kind))
		}
		pt, err := core.ParseTensorSection(hdr, payload)
		if err != nil {
			sched.PutBytes(payload)
			return abort(err)
		}
		e := &entries[i]
		e.meta = lossyMeta{name: pt.Name, kind: pt.Kind, shape: pt.Shape, elems: pt.Elems, shard: s.shardOf(pt.Name)}
		if structure != nil {
			if want := &structure.lossy[i]; pt.Name != want.name || pt.Elems != want.elems {
				sched.PutBytes(payload)
				return abort(fmt.Errorf("%w: agg: tensor %d is %q[%d], accumulator holds %q[%d]",
					core.ErrCorrupt, i, pt.Name, pt.Elems, want.name, want.elems))
			}
		}
		// Resolve the delta reference on the routing goroutine so shard
		// decode tasks carry plain slices, and reference problems surface
		// as ErrReference before any decode work is spent.
		ref, err := dec.Baseline(pt)
		if err != nil {
			sched.PutBytes(payload)
			return abort(err)
		}
		if pt.Delta {
			nDelta++
		}
		m.sectionsRouted(e.meta.shard).Inc()
		// Decode on the pool: when the budget is saturated the routing
		// goroutine decodes inline, stops draining the socket, and TCP
		// pushes back on the sender — same discipline as the whole-stream
		// decoder. The task owns payload (pt.Blob aliases it).
		g.Go(func() {
			if cerr := ctx.Err(); cerr != nil {
				sched.PutBytes(payload)
				e.err = cerr
				return
			}
			t0 := time.Now()
			data, derr := dec.DecodeTensor(pt, ref)
			decodeWork.add(time.Since(t0))
			sched.PutBytes(payload)
			if derr != nil {
				e.err = derr
				return
			}
			e.data = data
		})
	}

	kind, payload, err = sc.Next()
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: agg: stream ended before metadata section", core.ErrCorrupt)
		}
		return abort(err)
	}
	if kind != wire.FrameLossless {
		sched.PutBytes(payload)
		return abort(fmt.Errorf("%w: agg: frame kind 0x%02x, want lossless", core.ErrCorrupt, kind))
	}
	g.Go(func() {
		if cerr := ctx.Err(); cerr != nil {
			sched.PutBytes(payload)
			metaErr = cerr
			return
		}
		t0 := time.Now()
		metaDict, metaErr = dec.DecodeLossless(payload)
		decodeWork.add(time.Since(t0))
		sched.PutBytes(payload)
	})

	// The trailer must verify before anything folds: Next returns the
	// final io.EOF only after the frame counts and whole-stream CRC check.
	if _, extra, err := sc.Next(); err != io.EOF {
		sched.PutBytes(extra)
		if err == nil {
			err = fmt.Errorf("%w: agg: frames after the metadata section", core.ErrCorrupt)
		}
		return abort(err)
	}
	g.Wait()
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if metaErr != nil {
		return abort(metaErr)
	}
	for i := range entries {
		if entries[i].err != nil {
			return abort(entries[i].err)
		}
	}

	if _, err := s.commit(client, weight, hdr.Flags, entries, metaDict); err != nil {
		return abort(err)
	}

	elapsed := time.Since(start)
	dec.ObserveDecode(elapsed)
	return sc.WireBytes(), core.DecompressStats{
		DecompressTime: elapsed,
		ReadWait:       tr.blocked,
		DecodeWork:     decodeWork.load(),
		BytesRecycled:  sched.RecycledBytes() - recycled0,
		DeltaTensors:   nDelta,
	}, nil
}

// Fold is IngestStream for an already-decoded update (see "In-memory
// fold" above). On success Fold owns sd: an adopted sd becomes the
// accumulator, a folded or dedup-dropped one goes back via core.Release.
// On error sd stays the caller's.
func (s *Sharded) Fold(client uint32, weight float64, sd *tensor.StateDict) error {
	adopted, err := s.commit(client, weight, make([]byte, sd.Len()), nil, sd)
	if err != nil {
		return err
	}
	if !adopted {
		core.Release(sd)
	}
	return nil
}

// commit folds one fully verified, fully decoded update into the sharded
// accumulator and reports whether it adopted the update as the
// accumulator. It validates first and folds second, so a structural
// mismatch aborts with the accumulator untouched. The caller releases the
// staged buffers on error; on success adopted buffers transfer to the
// accumulator and added ones are recycled here. metaDict is adopted
// as-is or left to the caller. A weight of 0 folds at 1.
func (s *Sharded) commit(client uint32, weight float64, flags []byte, entries []staged, metaDict *tensor.StateDict) (bool, error) {
	t0 := time.Now()
	if weight == 0 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.DedupByClient {
		if s.seen == nil {
			s.seen = make(map[uint32]bool)
		}
		if s.seen[client] {
			// A concurrent duplicate slipped past the ingest-time check;
			// drop it here.
			for i := range entries {
				sched.PutFloats(entries[i].data)
				entries[i].data = nil
			}
			return false, nil
		}
	}

	adopt := s.structure == nil
	if adopt {
		// First update: its layout becomes the accumulator structure.
		lossy := make([]lossyMeta, len(entries))
		for i := range entries {
			lossy[i] = entries[i].meta
		}
		s.structure = &layout{flags: flags, lossy: lossy}
	} else {
		// Validate everything before folding anything. Routing already
		// checked per-section when the structure pre-dated this update;
		// re-checking here closes the race where two first updates ingest
		// concurrently and only one gets to define the structure.
		if !bytesEqual(s.structure.flags, flags) {
			return false, fmt.Errorf("%w: agg: update path flags differ from accumulator", core.ErrCorrupt)
		}
		if len(entries) != len(s.structure.lossy) {
			return false, fmt.Errorf("%w: agg: update has %d lossy tensors, accumulator %d", core.ErrCorrupt, len(entries), len(s.structure.lossy))
		}
		for i := range entries {
			want := &s.structure.lossy[i]
			if entries[i].meta.name != want.name || entries[i].meta.elems != want.elems {
				return false, fmt.Errorf("%w: agg: tensor %d is %q[%d], accumulator holds %q[%d]",
					core.ErrCorrupt, i, entries[i].meta.name, entries[i].meta.elems, want.name, want.elems)
			}
		}
		if err := s.meta.CheckCompatible(metaDict); err != nil {
			return false, fmt.Errorf("agg: metadata partition: %w", err)
		}
	}

	w := float32(weight)
	// Group this update's tensors by shard, then fold each shard's slice
	// as one independent task on the pool — P-way fold parallelism, with
	// every tensor folded by exactly its owning shard.
	perShard := make([][]int, len(s.shards))
	for i := range entries {
		sh := entries[i].meta.shard
		perShard[sh] = append(perShard[sh], i)
	}
	s.pool.ForEach(len(s.shards), func(si int) {
		acc := s.shards[si].acc
		for _, i := range perShard[si] {
			e := &entries[i]
			if adopt {
				if weight != 1 {
					scale(e.data, w)
				}
				acc[e.meta.name] = tensor.FromData(e.data, e.meta.shape...)
				e.data = nil // ownership transferred to the accumulator
				continue
			}
			addScaled(acc[e.meta.name].Data, e.data, w)
			sched.PutFloats(e.data)
			e.data = nil
		}
	})

	if adopt {
		s.meta = metaDict
		if weight != 1 {
			s.meta.Scale(w)
		}
		s.assembleSumView()
	} else if err := s.meta.AddScaled(metaDict, w); err != nil {
		// Unreachable after CheckCompatible above; kept as a hard stop so
		// a silent partial fold can never happen.
		return false, fmt.Errorf("agg: metadata partition: %w", err)
	}

	if s.cfg.DedupByClient {
		s.seen[client] = true
	}
	s.n++
	s.wsum += weight
	metrics().updates.Inc()
	metrics().mergeHist.Observe(time.Since(t0).Seconds())
	return adopt, nil
}

// assembleSumView builds the accumulator-order StateDict whose tensors
// alias the shard buffers and meta entries. Called once, at adoption;
// every later fold mutates those buffers in place, so the view stays
// current.
func (s *Sharded) assembleSumView() {
	view := tensor.NewStateDict()
	li, ri := 0, 0
	metaEntries := s.meta.Entries()
	for _, f := range s.structure.flags {
		if f == 1 { // pathLossy
			lm := &s.structure.lossy[li]
			li++
			view.Add(lm.name, lm.kind, s.shards[lm.shard].acc[lm.name])
		} else {
			e := metaEntries[ri]
			ri++
			view.Add(e.Name, e.Kind, e.Tensor)
		}
	}
	s.sumView = view
}

// currentStructure snapshots the adopted layout (nil before the first
// commit). The layout is immutable once set, so routing may validate
// against it lock-free afterwards.
func (s *Sharded) currentStructure() *layout {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.structure
}

// isDup reports whether client already folded (DedupByClient only).
func (s *Sharded) isDup(client uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[client]
}

// drain consumes a stream to its verified trailer, releasing every
// payload — the dedup path still checks integrity and keeps the
// connection's framing in sync.
func drain(sc *wire.FrameScanner) error {
	for {
		_, payload, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		sched.PutBytes(payload)
	}
}

// Count returns the number of folded updates.
func (s *Sharded) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// WeightSum returns the total aggregation weight folded so far.
func (s *Sharded) WeightSum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wsum
}

// Mean returns the weighted FedAvg mean of the folded updates (a copy
// over pooled tensor buffers, original entry order) and the update count;
// nil and 0 before the first update. Recycle via core.Release.
func (s *Sharded) Mean() (*tensor.StateDict, int) {
	sd, n, _ := s.MeanInto(nil)
	return sd, n
}

// MeanInto is Mean writing into dst's storage (the steady-state path for a
// server computing a mean every round). A non-nil dst must be structurally
// compatible with the accumulator; a mismatch — the model changed shape
// while the server kept its old scratch — returns an explicit error rather
// than silently reallocating over a dict the caller believes it is reusing.
func (s *Sharded) MeanInto(dst *tensor.StateDict) (*tensor.StateDict, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sumView == nil {
		return nil, 0, nil
	}
	if dst != nil {
		if err := dst.CheckCompatible(s.sumView); err != nil {
			return nil, s.n, fmt.Errorf("agg: MeanInto destination incompatible with accumulator: %w", err)
		}
	}
	out := s.sumView.CloneInto(dst)
	if s.wsum == float64(s.n) {
		// Unweighted traffic: one float32 divide, bit-identical to the
		// adopt-first fold of the decoded updates.
		out.Scale(1 / float32(s.n))
	} else {
		out.Scale(float32(1 / s.wsum))
	}
	return out, s.n, nil
}

// Reset clears the accumulator for the next round, recycling the shard
// buffers. The structure is re-adopted from the next round's first
// update, so a model shape change between rounds is permitted.
func (s *Sharded) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.shards {
		for _, t := range s.shards[i].acc {
			sched.PutFloats(t.Data)
		}
		s.shards[i].acc = make(map[string]*tensor.Tensor)
	}
	s.structure = nil
	s.meta = nil
	s.sumView = nil
	s.n = 0
	s.wsum = 0
	s.seen = nil
}

// Forward sends the weighted mean of everything folded so far upstream as
// ONE fused update over the FLS3 weighted protocol — the edge half of an
// edge→root tree — and resets the accumulator for the next round. The mean
// is lossy-encoded again on the aggregator's pool under opts, so the
// edge→root tolerance is one extra error bound on top of the client→edge
// one; tighten the bound (e.g. ebcl.Rel(1e-4)) when the tree is deep. Call
// it once the round's ingest has finished. It returns the weight forwarded
// (the represented population size); 0 with a nil error means there was
// nothing to forward. On error the accumulator is kept so a later Forward
// can retry.
func (s *Sharded) Forward(ctx context.Context, up *flserve.Client, id uint32, opts core.Options) (float64, error) {
	mean, n := s.Mean()
	if n == 0 {
		return 0, nil
	}
	weight := s.WeightSum()
	stream, _, err := core.CompressWith(ctx, s.pool, mean, opts)
	core.Release(mean)
	if err != nil {
		return 0, fmt.Errorf("agg: forward encode: %w", err)
	}
	if err := up.UploadWeighted(ctx, id, weight, stream); err != nil {
		return 0, fmt.Errorf("agg: forward upload: %w", err)
	}
	s.Reset()
	return weight, nil
}

// atomicDuration accumulates decode work across pool tasks.
type atomicDuration struct {
	mu sync.Mutex
	d  time.Duration
}

func (a *atomicDuration) add(d time.Duration) {
	a.mu.Lock()
	a.d += d
	a.mu.Unlock()
}

func (a *atomicDuration) load() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.d
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scale multiplies in place.
func scale(a []float32, w float32) {
	for i := range a {
		a[i] *= w
	}
}

// addScaled is the fold kernel: a[i] += w·b[i], the same arithmetic as
// StateDict.AddScaled so sequential unweighted ingest stays bit-for-bit
// with the adopt-first fold of the decoded updates.
func addScaled(a, b []float32, w float32) {
	for i := range a {
		a[i] += w * b[i]
	}
}
