package agg

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/flserve"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// clientUpdate synthesizes one client's model update: two lossy weight
// tensors plus metadata, distinct per seed.
func clientUpdate(seed uint64) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0x9E37))
	sd := tensor.NewStateDict()
	sd.Add("conv.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64))
	sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("conv.bias", tensor.KindBias, b)
	return sd
}

// compressUpdates builds n compressed client streams plus their decoded
// (post-quantization) forms — the values any aggregator actually folds.
func compressUpdates(t testing.TB, n int) ([][]byte, []*tensor.StateDict) {
	t.Helper()
	streams := make([][]byte, n)
	decoded := make([]*tensor.StateDict, n)
	for i := range streams {
		var err error
		streams[i], _, err = core.Compress(clientUpdate(uint64(i)+1), core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			t.Fatal(err)
		}
		decoded[i], _, err = core.Decompress(streams[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	return streams, decoded
}

// frame wire-frames a FedSZ stream the way a client upload would.
func frame(t testing.TB, stream []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewWriter(&buf).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingest pushes one framed stream through IngestStream.
func ingest(t testing.TB, s *Sharded, client uint32, weight float64, framed []byte) {
	t.Helper()
	if _, _, err := s.IngestStream(context.Background(), client, weight, core.DecodeOptions{}, bytes.NewReader(framed)); err != nil {
		t.Fatalf("ingest client %d: %v", client, err)
	}
}

// oracleMean is the manual FedAvg fold of decoded updates in order: adopt
// (a copy of) the first, AddScaled(·, 1) the rest, then one float32
// divide by the count.
func oracleMean(t testing.TB, decoded []*tensor.StateDict) *tensor.StateDict {
	t.Helper()
	mean := decoded[0].Clone()
	for _, sd := range decoded[1:] {
		if err := mean.AddScaled(sd, 1); err != nil {
			t.Fatal(err)
		}
	}
	mean.Scale(1 / float32(len(decoded)))
	return mean
}

// uploadAll fires one concurrent upload per stream (client i carries
// stream i) and fails the test on any error.
func uploadAll(t *testing.T, addr string, streams [][]byte) {
	t.Helper()
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s []byte) {
			defer wg.Done()
			errs[i] = (&flserve.Client{Addr: addr}).Upload(context.Background(), uint32(i), s)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d upload: %v", i, err)
		}
	}
}

// TestShardedConformance is the correctness anchor: for P ∈ {1, 2, 4},
// sequentially ingesting the same streams through the section-routed
// sharded fold produces a mean BIT-FOR-BIT identical to the manual
// adopt-first fold of the decoded updates — same fold kernel, same fold
// order, same final divide.
func TestShardedConformance(t *testing.T) {
	const n = 6
	streams, decoded := compressUpdates(t, n)
	want := oracleMean(t, decoded)

	for _, p := range []int{1, 2, 4} {
		sh := New(Config{Shards: p, Pool: sched.NewPool(2)})
		for i, s := range streams {
			ingest(t, sh, uint32(i), 1, frame(t, s))
		}
		got, gn := sh.Mean()
		if gn != n {
			t.Fatalf("P=%d folded %d, want %d", p, gn, n)
		}
		diff, err := want.MaxAbsDiff(got)
		if err != nil {
			t.Fatalf("P=%d structure mismatch: %v", p, err)
		}
		if diff != 0 {
			t.Fatalf("P=%d sequential shard-merged fold differs from the manual fold: max abs diff %g, want bit-for-bit 0", p, diff)
		}
		core.Release(got)
	}
}

// TestShardedConformanceConcurrent ingests concurrently, where only the
// per-tensor fold order may differ from the manual fold — a float
// reassociation bounded well below the codec's own error bound. The
// asserted tolerance (1e-5) is the documented weighted-merge tolerance
// from the README's scale-out section.
func TestShardedConformanceConcurrent(t *testing.T) {
	const n = 8
	streams, decoded := compressUpdates(t, n)
	want := oracleMean(t, decoded)

	for _, p := range []int{2, 4} {
		sh := New(Config{Shards: p, Pool: sched.NewPool(4)})
		var wg sync.WaitGroup
		for i, s := range streams {
			wg.Add(1)
			go func(i int, framed []byte) {
				defer wg.Done()
				ingest(t, sh, uint32(i), 1, framed)
			}(i, frame(t, s))
		}
		wg.Wait()
		got, gn := sh.Mean()
		if gn != n {
			t.Fatalf("P=%d folded %d, want %d", p, gn, n)
		}
		diff, err := want.MaxAbsDiff(got)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-5 {
			t.Fatalf("P=%d concurrent fold diverged: max abs diff %g > 1e-5", p, diff)
		}
		core.Release(got)
	}
}

// TestShardedMatchesManualFedAvg: concurrent uploads over real loopback
// connections must fold to the all-at-once mean of the decoded updates
// (within float summation noise — arrival order is nondeterministic).
func TestShardedMatchesManualFedAvg(t *testing.T) {
	const n = 8
	streams, decoded := compressUpdates(t, n)
	sh := New(Config{Pool: sched.NewPool(4)})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
	if err != nil {
		t.Fatal(err)
	}
	uploadAll(t, srv.Addr().String(), streams)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	mean, count := sh.Mean()
	if count != n {
		t.Fatalf("aggregated %d updates, want %d", count, n)
	}
	want := decoded[0].Zero()
	for _, sd := range decoded {
		if err := want.AddScaled(sd, 1/float32(n)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := mean.MaxAbsDiff(want)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-5 {
		t.Fatalf("incremental mean differs from reference by %g", d)
	}
	core.Release(mean)
}

// TestShardedMeanIntoShapeMismatch: a destination dict that no longer
// matches the accumulator must yield the explicit error, never a silent
// reallocation.
func TestShardedMeanIntoShapeMismatch(t *testing.T) {
	streams, _ := compressUpdates(t, 2)
	sh := New(Config{Shards: 2})
	for i, s := range streams {
		ingest(t, sh, uint32(i), 1, frame(t, s))
	}

	bad := tensor.NewStateDict()
	bad.Add("conv.weight", tensor.KindWeight, tensor.New(8, 8))
	if _, n, err := sh.MeanInto(bad); err == nil || n != 2 ||
		!strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("mismatched destination: n=%d err=%v, want explicit incompatibility", n, err)
	}

	// A compatible destination is filled in place.
	dst := clientUpdate(3)
	out, n, err := sh.MeanInto(dst)
	if err != nil || n != 2 {
		t.Fatalf("compatible destination: n=%d err=%v", n, err)
	}
	if out != dst {
		t.Fatal("MeanInto did not reuse the compatible destination")
	}
	want, wn := sh.Mean()
	if wn != 2 {
		t.Fatalf("Mean count %d, want 2", wn)
	}
	if d, err := out.MaxAbsDiff(want); err != nil || d != 0 {
		t.Fatalf("MeanInto result differs from Mean: d=%v err=%v", d, err)
	}

	// Empty accumulator: nil result, no error, any destination accepted.
	empty := New(Config{})
	if out, n, err := empty.MeanInto(bad); out != nil || n != 0 || err != nil {
		t.Fatalf("empty accumulator: (%v, %d, %v), want (nil, 0, nil)", out, n, err)
	}
}

// TestShardedObservesDecodeStage: a section-routed ingest feeds the same
// per-codec fedsz_decode_seconds histogram as the whole-stream decoder,
// so a server's /metrics keeps that stage timer.
func TestShardedObservesDecodeStage(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	count := func() float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := telemetry.Default().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := telemetry.ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s, _ := telemetry.FindSample(samples, "fedsz_decode_seconds_count", telemetry.L("codec", "sz2"))
		return s.Value
	}
	before := count()
	ingest(t, New(Config{}), 0, 1, frame(t, streams[0]))
	if got := count(); got != before+1 {
		t.Fatalf("fedsz_decode_seconds_count{codec=sz2} went %v -> %v, want +1", before, got)
	}
}

// TestShardedWeighted checks the weighted merge: ingesting updates at
// weights 2 and 3 must equal the manual (2a + 3b)/5.
func TestShardedWeighted(t *testing.T) {
	streams, decoded := compressUpdates(t, 2)
	sh := New(Config{Shards: 2})
	ingest(t, sh, 0, 2, frame(t, streams[0]))
	ingest(t, sh, 1, 3, frame(t, streams[1]))
	got, n := sh.Mean()
	if n != 2 {
		t.Fatalf("folded %d, want 2", n)
	}
	if ws := sh.WeightSum(); ws != 5 {
		t.Fatalf("WeightSum = %v, want 5", ws)
	}

	want := decoded[0].Clone()
	want.Scale(2)
	if err := want.AddScaled(decoded[1], 3); err != nil {
		t.Fatal(err)
	}
	want.Scale(float32(1.0 / 5.0))
	diff, err := want.MaxAbsDiff(got)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-6 {
		t.Fatalf("weighted mean off by %g", diff)
	}
	core.Release(got)
}

// TestShardedDelta routes v3 residual sections: the shard decode must
// fold the reference back in, and an epoch mismatch must surface as
// ErrReference (renegotiable), never ErrCorrupt.
func TestShardedDelta(t *testing.T) {
	ref := clientUpdate(99)
	// A small perturbation of the reference, so residual encoding wins and
	// the encoder actually emits delta sections.
	upd := ref.Clone()
	rng := rand.New(rand.NewPCG(7, 7^0xD317A))
	for _, e := range upd.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += float32(1e-3 * rng.NormFloat64())
		}
	}
	stream, _, err := core.Compress(upd, core.Options{LossyParams: ebcl.Rel(1e-2), Reference: ref, RefEpoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.DecompressOpts(context.Background(), nil, stream, core.DecodeOptions{Reference: ref, RefEpoch: 7})
	if err != nil {
		t.Fatal(err)
	}

	sh := New(Config{Shards: 2})
	_, dstats, err := sh.IngestStream(context.Background(), 1, 1, core.DecodeOptions{Reference: ref, RefEpoch: 7}, bytes.NewReader(frame(t, stream)))
	if err != nil {
		t.Fatal(err)
	}
	if dstats.DeltaTensors == 0 {
		t.Fatal("no residual sections routed; fixture did not exercise delta")
	}
	got, _ := sh.Mean()
	diff, err := want.MaxAbsDiff(got)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("delta fold differs from whole-stream decode: %g", diff)
	}
	core.Release(got)

	// Wrong epoch: ErrReference, accumulator untouched.
	sh2 := New(Config{Shards: 2})
	_, _, err = sh2.IngestStream(context.Background(), 1, 1, core.DecodeOptions{Reference: ref, RefEpoch: 8}, bytes.NewReader(frame(t, stream)))
	if !errors.Is(err, core.ErrReference) {
		t.Fatalf("epoch mismatch err = %v, want ErrReference", err)
	}
	if errors.Is(err, core.ErrCorrupt) {
		t.Fatal("epoch mismatch classified as corruption")
	}
	if n := sh2.Count(); n != 0 {
		t.Fatalf("failed update folded: count %d", n)
	}
}

// TestShardedCorruptAtomicity flips a byte mid-stream: the update must
// fail with ErrCorrupt and fold NOTHING, even though earlier sections
// were already decodable — the staged-commit atomicity guarantee.
func TestShardedCorruptAtomicity(t *testing.T) {
	streams, _ := compressUpdates(t, 2)
	sh := New(Config{Shards: 2})
	ingest(t, sh, 0, 1, frame(t, streams[0]))

	framed := frame(t, streams[1])
	framed[len(framed)-3] ^= 0x40 // damage the trailer
	_, _, err := sh.IngestStream(context.Background(), 1, 1, core.DecodeOptions{}, bytes.NewReader(framed))
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := sh.Count(); n != 1 {
		t.Fatalf("corrupt update folded: count %d, want 1", n)
	}

	// The undamaged copy still folds afterwards.
	ingest(t, sh, 1, 1, frame(t, streams[1]))
	if n := sh.Count(); n != 2 {
		t.Fatalf("count %d after recovery, want 2", n)
	}
}

// TestShardedDedupAcrossSessions is the at-least-once regression: a
// client re-uploading its update on a fresh session (the
// retry-after-lost-ack pattern) must fold exactly once, and the duplicate
// must still be acked as success. Sequential uploads keep the fold order
// fixed, so the mean must match the manual fold of the distinct updates
// bit for bit.
func TestShardedDedupAcrossSessions(t *testing.T) {
	streams, decoded := compressUpdates(t, 2)
	for _, tc := range []struct {
		name    string
		clients []uint32 // upload order, one session each; client i sends stream i%2
		folds   int
	}{
		{"same client twice", []uint32{42, 42}, 1},
		{"retried among others", []uint32{0, 1, 0}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := New(Config{Shards: 2, DedupByClient: true})
			srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for session, id := range tc.clients {
				c := &flserve.Client{Addr: srv.Addr().String()}
				if err := c.Upload(context.Background(), id, streams[id%2]); err != nil {
					t.Fatalf("session %d upload: %v", session, err)
				}
			}
			if n := sh.Count(); n != tc.folds {
				t.Fatalf("folded %d updates, want %d (duplicate dropped)", n, tc.folds)
			}
			got, _ := sh.Mean()
			diff, err := oracleMean(t, decoded[:tc.folds]).MaxAbsDiff(got)
			if err != nil {
				t.Fatal(err)
			}
			if diff != 0 {
				t.Fatalf("dedup mean differs from the distinct updates' fold: %g", diff)
			}
			core.Release(got)
		})
	}
}

// TestFoldMatchesOracle: sequential Folds of decoded updates produce the
// adopt-first oracle's mean bit for bit — the same commit as streamed
// ingest, minus the routing.
func TestFoldMatchesOracle(t *testing.T) {
	_, decoded := compressUpdates(t, 4)
	want := oracleMean(t, decoded)
	sh := New(Config{Shards: 2})
	for i, sd := range decoded {
		if err := sh.Fold(uint32(i), 1, sd.Clone()); err != nil {
			t.Fatalf("fold client %d: %v", i, err)
		}
	}
	got, n := sh.Mean()
	if n != len(decoded) {
		t.Fatalf("folded %d, want %d", n, len(decoded))
	}
	if d, err := want.MaxAbsDiff(got); err != nil || d != 0 {
		t.Fatalf("Fold mean differs from the oracle: d=%v err=%v", d, err)
	}
	// Folds and streams define different layouts; mixing them is a
	// structural mismatch, not a silent misfold.
	streams, _ := compressUpdates(t, 1)
	if _, _, err := sh.IngestStream(context.Background(), 9, 1, core.DecodeOptions{}, bytes.NewReader(frame(t, streams[0]))); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("stream into a Fold accumulator: err=%v, want ErrCorrupt", err)
	}
}

// TestFoldDedupCountsOnce: with DedupByClient, a second Fold from the same
// client is dropped inside commit — the branch a concurrent duplicate
// upload reaches — so Count stays 1, fedsz_agg_updates_total ("Updates
// folded") moves by exactly one, and the duplicate's buffers go back to
// the pool.
func TestFoldDedupCountsOnce(t *testing.T) {
	sh := New(Config{DedupByClient: true})
	first, dup := clientUpdate(1), clientUpdate(2)
	want := first.Clone()
	updates0 := metrics().updates.Value()
	if err := sh.Fold(7, 1, first); err != nil {
		t.Fatal(err)
	}
	recycled0 := sched.RecycledBytes()
	if err := sh.Fold(7, 1, dup); err != nil {
		t.Fatalf("duplicate fold: %v, want a silent drop", err)
	}
	if got := sched.RecycledBytes() - recycled0; got < uint64(dup.SizeBytes()) {
		t.Fatalf("duplicate recycled %d bytes, want >= %d", got, dup.SizeBytes())
	}
	if n := sh.Count(); n != 1 {
		t.Fatalf("Count %d, want 1", n)
	}
	if d := metrics().updates.Value() - updates0; d != 1 {
		t.Fatalf("fedsz_agg_updates_total moved by %d, want 1", d)
	}
	mean, _ := sh.Mean()
	if d, err := want.MaxAbsDiff(mean); err != nil || d != 0 {
		t.Fatalf("mean is not the first update: d=%v err=%v", d, err)
	}
}

// TestTwoTierE2E runs a real root + two edges over TCP: clients upload to
// the edges, the edges Forward one fused weighted update each, and the root
// mean must match the flat fold of all five clients within the documented
// tolerance (float reassociation + one extra lossy encode of each edge
// mean at the edge's tighter bound).
func TestTwoTierE2E(t *testing.T) {
	const nA, nB = 3, 2
	streams, decoded := compressUpdates(t, nA+nB)

	rootAgg := New(Config{Shards: 2, Pool: sched.NewPool(2)})
	root, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: rootAgg})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	// An edge is a plain server folding its population through a Sharded.
	listenEdge := func() (*Sharded, *flserve.Server) {
		sh := New(Config{Shards: 2, Pool: sched.NewPool(2)})
		srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
		if err != nil {
			t.Fatal(err)
		}
		return sh, srv
	}
	aggA, edgeA := listenEdge()
	defer edgeA.Close()
	aggB, edgeB := listenEdge()
	defer edgeB.Close()

	var wg sync.WaitGroup
	upload := func(addr string, client uint32, stream []byte) {
		defer wg.Done()
		c := &flserve.Client{Addr: addr}
		if err := c.Upload(context.Background(), client, stream); err != nil {
			t.Errorf("client %d: %v", client, err)
		}
	}
	for i := 0; i < nA; i++ {
		wg.Add(1)
		go upload(edgeA.Addr().String(), uint32(i), streams[i])
	}
	for i := 0; i < nB; i++ {
		wg.Add(1)
		go upload(edgeB.Addr().String(), uint32(nA+i), streams[nA+i])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	up := &flserve.Client{Addr: root.Addr().String()}
	opts := core.Options{LossyParams: ebcl.Rel(1e-4)}
	wA, err := aggA.Forward(context.Background(), up, 1000, opts)
	if err != nil {
		t.Fatal(err)
	}
	wB, err := aggB.Forward(context.Background(), up, 1001, opts)
	if err != nil {
		t.Fatal(err)
	}
	if wA != nA || wB != nB {
		t.Fatalf("forward weights %v/%v, want %d/%d", wA, wB, nA, nB)
	}
	// A second forward with nothing folded is a no-op, not a zero-weight
	// upload.
	if w, err := aggA.Forward(context.Background(), up, 1000, opts); err != nil || w != 0 {
		t.Fatalf("empty forward = (%v, %v), want (0, nil)", w, err)
	}

	if n := rootAgg.Count(); n != 2 {
		t.Fatalf("root folded %d edge updates, want 2", n)
	}
	if ws := rootAgg.WeightSum(); ws != nA+nB {
		t.Fatalf("root weight sum %v, want %d", ws, nA+nB)
	}
	got, _ := rootAgg.Mean()
	diff, err := oracleMean(t, decoded).MaxAbsDiff(got)
	if err != nil {
		t.Fatalf("root/flat structure mismatch: %v", err)
	}
	// Tolerance: the edge means were re-encoded at REL 1e-4, so each
	// absolute error is bounded by 1e-4·|value| (values are O(1)), plus
	// float reassociation far below that.
	if diff > 1e-3 {
		t.Fatalf("two-tier mean diverged from flat fold: max abs diff %g > 1e-3", diff)
	}
	core.Release(got)
}

// TestOverloadSheds drives far more concurrent uploads than MaxConns +
// QueueDepth can admit: the excess must be shed — classified as ErrShed
// with a retry-after hint, never as corruption or rejection — while the
// admitted updates all fold, and the decode pool must be fully idle after
// the drain.
func TestOverloadSheds(t *testing.T) {
	const clients = 10
	streams, _ := compressUpdates(t, 1)
	pool := sched.NewPool(2)
	sh := New(Config{Shards: 2, Pool: pool})
	gate := make(chan struct{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Ingestor:       gatedIngestor{sh, gate},
		MaxConns:       1,
		QueueDepth:     2,
		RetryAfterHint: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &flserve.Client{Addr: srv.Addr().String()}
			errs[i] = c.Upload(context.Background(), uint32(i), streams[0])
		}(i)
	}
	// Let the queue fill and the excess shed before releasing the gate.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	wg.Wait()

	shed, ok := 0, 0
	var retryAfter time.Duration
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, flserve.ErrShed):
			shed++
			var se *flserve.ShedError
			if !errors.As(err, &se) {
				t.Fatalf("client %d: shed not surfaced as *ShedError: %v", i, err)
			}
			retryAfter = se.RetryAfter
		case errors.Is(err, core.ErrCorrupt), errors.Is(err, flserve.ErrRejected):
			t.Fatalf("client %d: shed misclassified: %v", i, err)
		default:
			t.Fatalf("client %d: unexpected error class: %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("no client was shed under overload")
	}
	if ok == 0 {
		t.Fatal("no client was admitted under overload")
	}
	if retryAfter != 25*time.Millisecond {
		t.Fatalf("retry-after hint %v, want 25ms", retryAfter)
	}
	if snap := srv.Snapshot(); snap.Shed != shed {
		t.Fatalf("server counted %d sheds, clients saw %d", snap.Shed, shed)
	}
	if n := sh.Count(); n != ok {
		t.Fatalf("folded %d, acked %d", sh.Count(), ok)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("pool still busy after drain: %d", busy)
	}
}

// gatedIngestor blocks every ingest until the gate closes — the overload
// test's way of pinning the MaxConns slot.
type gatedIngestor struct {
	inner *Sharded
	gate  chan struct{}
}

func (g gatedIngestor) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	<-g.gate
	return g.inner.IngestStream(ctx, client, weight, dopts, r)
}

// TestShedRetrySucceeds: a client with retries enabled rides out the shed
// using the server's hint and eventually lands its update.
func TestShedRetrySucceeds(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	sh := New(Config{Shards: 1})
	gate := make(chan struct{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Ingestor:       gatedIngestor{sh, gate},
		MaxConns:       1,
		QueueDepth:     1,
		RetryAfterHint: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Occupy the serving slot and the queue.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &flserve.Client{Addr: srv.Addr().String()}
			if err := c.Upload(context.Background(), uint32(i), streams[0]); err != nil {
				t.Errorf("pinned client %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	c := &flserve.Client{Addr: srv.Addr().String(), Retries: 20, RetryBackoff: 5 * time.Millisecond}
	if err := c.Upload(context.Background(), 99, streams[0]); err != nil {
		t.Fatalf("retrying client never landed: %v", err)
	}
	wg.Wait()
	if n := sh.Count(); n != 3 {
		t.Fatalf("folded %d, want 3", n)
	}
}
