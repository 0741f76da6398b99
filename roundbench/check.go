package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/flserve"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// lossyParams is the paper's default error control, used by every workload.
var lossyParams = ebcl.Rel(1e-2)

// f32Eps is the float32 unit roundoff.
const f32Eps = 1.0 / (1 << 23)

// takesLossyPath mirrors core's partition rule at the default threshold.
func takesLossyPath(e tensor.Entry) bool {
	return e.Kind == tensor.KindWeight && e.Tensor.NumElems() > core.DefaultThreshold
}

// checkMean compares got, the aggregated mean of n updates, with the exact
// mean of the raw updates. A lossy entry may differ by the largest
// absolute bound its REL setting resolves to over the updates; every
// element may also differ by the rounding of n float32 additions and the
// 1/n scale, which grows with the largest |value| folded into it. Entries
// are checked on GOMAXPROCS goroutines.
func checkMean(got *tensor.StateDict, n int, raws []*tensor.StateDict) error {
	if got == nil {
		return errors.New("aggregator returned no mean")
	}
	if n != len(raws) {
		return fmt.Errorf("mean folds %d updates, want %d", n, len(raws))
	}
	want := raws[0].Entries()
	have := got.Entries()
	if len(have) != len(want) {
		return fmt.Errorf("mean has %d entries, want %d", len(have), len(want))
	}
	errs := make([]error, len(want))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(want); i = int(next.Add(1)) - 1 {
				errs[i] = checkEntry(have[i], i, raws)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkEntry checks entry i of the mean against the raw updates.
func checkEntry(h tensor.Entry, i int, raws []*tensor.StateDict) error {
	w := raws[0].Entries()[i]
	if h.Name != w.Name || h.Tensor.NumElems() != w.Tensor.NumElems() {
		return fmt.Errorf("mean entry %d is %q[%d], want %q[%d]", i, h.Name, h.Tensor.NumElems(), w.Name, w.Tensor.NumElems())
	}
	n := len(raws)
	cols := make([][]float32, n)
	bound := 0.0
	for c, r := range raws {
		cols[c] = r.Entries()[i].Tensor.Data
		if takesLossyPath(w) {
			eb, err := ebcl.ResolveAbs(cols[c], lossyParams)
			if err != nil {
				return fmt.Errorf("resolve bound of %q: %w", w.Name, err)
			}
			bound = math.Max(bound, eb)
		}
	}
	fold := float64(n+3) * f32Eps
	for j, v := range h.Tensor.Data {
		var sum, big float64
		for _, col := range cols {
			x := float64(col[j])
			sum += x
			big = max(big, math.Abs(x))
		}
		exact := sum / float64(n)
		tol := bound*(1+1e-6) + fold*(big+bound)
		if d := math.Abs(float64(v) - exact); !(d <= tol) {
			return fmt.Errorf("mean %q[%d] = %g, want %g ± %g", w.Name, j, v, exact, tol)
		}
	}
	return nil
}

// deltaCheck rejects a delta-workload update that did not travel as a
// delta: a refused negotiation, or a stream with no residual section.
func deltaCheck(accepted bool, st *core.Stats) error {
	if !accepted {
		return errors.New("server refused the delta negotiation")
	}
	if st == nil || st.DeltaTensors == 0 {
		return errors.New("update carried no residual tensor")
	}
	return nil
}

// selfTest proves the checks can fail: a round-tripped mean must pass, a
// perturbed lossy or lossless value must not, and a refused delta
// negotiation must be reported.
func selfTest() error {
	src := rand.NewPCG(7, 7)
	rng := rand.New(src)
	tmpl := tensor.NewStateDict()
	w := tensor.New(64, 64)
	b := tensor.New(64)
	tmpl.Add("w", tensor.KindWeight, w)
	tmpl.Add("b", tensor.KindBias, b)
	for j := range w.Data {
		w.Data[j] = float32(0.05 * rng.NormFloat64())
	}
	sp := spreadsOf(tmpl)
	raws := []*tensor.StateDict{tmpl.Clone(), tmpl.Clone()}
	for _, r := range raws {
		refill(r, sp, src)
	}
	var sum *tensor.StateDict
	for _, r := range raws {
		stream, _, err := core.CompressWith(context.Background(), nil, r, core.Options{LossyParams: lossyParams})
		if err != nil {
			return err
		}
		sd, _, err := core.DecompressWith(context.Background(), nil, stream)
		if err != nil {
			return err
		}
		if sum == nil {
			sum = sd
		} else if err := sum.AddScaled(sd, 1); err != nil {
			return err
		}
	}
	sum.Scale(1 / float32(len(raws)))
	if err := checkMean(sum, len(raws), raws); err != nil {
		return fmt.Errorf("checker rejects a correct mean: %w", err)
	}
	eb := 0.0
	for _, r := range raws {
		b, err := ebcl.ResolveAbs(r.Get("w").Data, lossyParams)
		if err != nil {
			return err
		}
		eb = math.Max(eb, b)
	}
	// Three times the bound on a lossy value, a thousandth on a lossless one.
	for i, delta := range []float64{3 * eb, 1e-3} {
		bad := sum.Clone()
		bad.Entries()[i].Tensor.Data[5] += float32(delta)
		if checkMean(bad, len(raws), raws) == nil {
			return fmt.Errorf("checker accepts a mean with entry %q perturbed by %g", bad.Entries()[i].Name, delta)
		}
	}
	if checkMean(sum, len(raws)+1, raws) == nil {
		return errors.New("checker accepts a mean missing an update")
	}
	return refusedDeltaTest()
}

// refusedDeltaTest opens a delta session to a server holding no reference
// and requires deltaCheck to flag it.
func refusedDeltaTest() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := flserve.Serve(ln, flserve.Config{
		Ingestor:    agg.New(agg.Config{Pool: sched.Serial()}),
		RefProvider: func(uint32) *tensor.StateDict { return nil },
	})
	defer srv.Close()
	sess, err := (&flserve.Client{Addr: srv.Addr().String()}).DialDelta(context.Background(), 1)
	if err != nil {
		return err
	}
	defer sess.Close()
	if deltaCheck(sess.DeltaAccepted(), &core.Stats{DeltaTensors: 1}) == nil {
		return errors.New("delta check accepts a refused negotiation")
	}
	if deltaCheck(true, &core.Stats{}) == nil {
		return errors.New("delta check accepts an update with no residual tensor")
	}
	return nil
}
