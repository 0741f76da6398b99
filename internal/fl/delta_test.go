package fl

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ebcl"
	"repro/internal/nn/models"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// TestFedSZTransportDeltaRounds: the in-memory transport with Delta set must
// run full rounds end to end, actually take the residual path (the rounds
// are temporally correlated by construction), spend fewer wire bytes than
// the identical federation on absolute streams, and still learn.
func TestFedSZTransportDeltaRounds(t *testing.T) {
	const rounds = 3
	abs := NewFedSZTransport(core.Options{LossyParams: ebcl.Rel(1e-2)})
	absRes, err := smokeFederation(t, abs, 42).Run(context.Background(), rounds, 1)
	if err != nil {
		t.Fatal(err)
	}

	dt := NewFedSZTransport(core.Options{LossyParams: ebcl.Rel(1e-2)})
	dt.Delta = true
	dRes, err := smokeFederation(t, dt, 42).Run(context.Background(), rounds, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The residual encoding must have engaged — otherwise this test silently
	// exercises the absolute path twice.
	if dt.LastStats == nil || dt.LastStats.DeltaTensors == 0 {
		t.Fatalf("delta transport never took the residual path: %+v", dt.LastStats)
	}
	if dt.LastStats.DeltaBytesSaved <= 0 {
		t.Fatalf("residual path engaged but saved nothing: %+v", dt.LastStats)
	}

	// Local SGD steps are small relative to the weights, so residual streams
	// must cost fewer total bytes than absolute streams over the same rounds.
	absWire, dWire := 0, 0
	for r := 0; r < rounds; r++ {
		absWire += absRes[r].WireBytes
		dWire += dRes[r].WireBytes
	}
	if dWire >= absWire {
		t.Errorf("delta wire bytes %d not below absolute %d", dWire, absWire)
	}

	// Delta changes the encoding, not the error contract: learning stays in
	// the same band as the absolute run.
	if d := absRes[rounds-1].Accuracy - dRes[rounds-1].Accuracy; d > 0.15 {
		t.Errorf("delta cost %.3f accuracy (abs %.3f, delta %.3f)",
			d, absRes[rounds-1].Accuracy, dRes[rounds-1].Accuracy)
	}
	t.Logf("wire abs=%d delta=%d (%.1f%% saved), delta tensors last round=%d",
		absWire, dWire, 100*(1-float64(dWire)/float64(absWire)), dt.LastStats.DeltaTensors)
}

// TestNetTransportDeltaStreamingMatchesInMemory: the socket path — FLS2
// negotiation, residual encode straight into the framer, server decode
// against the provider's reference, fold — must fold the in-memory delta
// pipeline's values.
func TestNetTransportDeltaStreamingMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	nt := NewNetTransport(core.Options{LossyParams: ebcl.Rel(1e-2)})
	nt.Delta = true
	in := models.Input{Channels: 3, Height: 12, Width: 12, Classes: 10}
	refNet, err := models.BuildMini("alexnet", rng, in)
	if err != nil {
		t.Fatal(err)
	}
	ref := refNet.StateDict()
	nt.SetReference(ref)

	// Correlated updates: the reference plus a small SGD-sized step.
	sds := make([]*tensor.StateDict, 4)
	for i := range sds {
		sd := ref.Clone()
		for _, e := range sd.Entries() {
			for j := range e.Tensor.Data {
				e.Tensor.Data[j] += float32(1e-3 * rng.NormFloat64())
			}
		}
		sds[i] = sd
	}
	held, epoch, ok := nt.ref.Get()
	if !ok || epoch != 1 {
		t.Fatalf("reference not retained: ok=%v epoch=%d", ok, epoch)
	}
	opts := nt.Opts
	opts.Reference, opts.RefEpoch = held, epoch
	dopts := core.DecodeOptions{Reference: held, RefEpoch: epoch}
	deltaSections := 0
	decoded := make([]*tensor.StateDict, len(sds))
	for i, sd := range sds {
		stream, stats, err := core.CompressWith(context.Background(), sched.Default(), sd, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stream[4] != 3 {
			t.Fatalf("client %d: in-memory stream version %d, want 3", i, stream[4])
		}
		deltaSections += stats.DeltaTensors
		if decoded[i], _, err = core.DecompressOpts(context.Background(), sched.Default(), stream, dopts); err != nil {
			t.Fatal(err)
		}
	}
	if deltaSections == 0 {
		t.Fatal("correlated updates produced no residual sections")
	}
	checkUploadMatchesOracle(t, nt, sds, oracleMean(t, decoded))
}

// TestControllerRetunesTransport: with a Controller whose byte budget is
// impossible to meet, every round must loosen the transport's bound through
// the TunableTransport seam.
func TestControllerRetunesTransport(t *testing.T) {
	tr := NewFedSZTransport(core.Options{LossyParams: ebcl.Rel(1e-2)})
	fed := smokeFederation(t, tr, 7)
	ctrl, err := delta.NewController(ebcl.Rel(1e-2), delta.ControllerConfig{TargetBytes: 1, Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	fed.Controller = ctrl
	if _, err := fed.Run(context.Background(), 2, 1); err != nil {
		t.Fatal(err)
	}
	// Both rounds exceed the 1-byte budget: two doubling steps.
	if got := tr.Opts.LossyParams.Value; got != 4e-2 {
		t.Fatalf("controller did not retune the transport: bound %g, want 4e-2", got)
	}
}

// TestRunRoundAccumulatorMismatchFails: a retained mean scratch from a
// structurally different model must fail the round with agg's explicit
// incompatibility error, not silently reallocate.
func TestRunRoundAccumulatorMismatchFails(t *testing.T) {
	fed := smokeFederation(t, RawTransport{}, 3)
	if _, err := fed.RunRound(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	// Simulate the bug the check exists for: the global model changed
	// structure while the retained mean scratch from the old one survived.
	stale := tensor.NewStateDict()
	stale.Add("conv.weight", tensor.KindWeight, tensor.New(8, 8))
	fed.mean = stale
	_, err := fed.RunRound(context.Background(), 1, 1)
	if err == nil || !strings.Contains(err.Error(), "incompatible with accumulator") {
		t.Fatalf("stale accumulator not detected: %v", err)
	}
}
