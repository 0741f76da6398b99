package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ebcl"
	"repro/internal/nn/models"
	"repro/internal/tensor"
)

// uploadMode is how a workload's clients put an update on the wire.
type uploadMode int

const (
	// streamEncode encodes the update straight into the socket
	// (Session.UploadState); client encode is on the measured path.
	streamEncode uploadMode = iota
	// preEncoded uploads bytes encoded during set-up (Session.Upload);
	// only de-framing, decode and fold are on the measured path.
	preEncoded
	// deltaEncode negotiates the round's reference (DialDelta) and encodes
	// against it, so every lossy tensor is tried as a residual.
	deltaEncode
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	mode uploadMode
	// template builds the seeded model state the workload's updates are
	// drawn from: its layout, kinds and per-tensor value spread.
	template func(rng *rand.Rand) (*tensor.StateDict, error)
}

const (
	// alexnetScale puts each of the AlexNet profile's 12 weight tensors
	// just above core.DefaultChunkElems (512Ki elements), so every lossy
	// tensor takes the chunked (v4) encode and decode.
	alexnetScale = 0.106
	// resnetScale keeps a delta update (two encodes per tensor) near the
	// per-update cost of the AlexNet round.
	resnetScale = 0.04
	// deltaDrift is the standard deviation of a delta client's seeded
	// drift from the broadcast global, as a share of each tensor's value
	// range: a fifth of the REL 1e-2 bound, so residual codes pile up near
	// zero (about 1e-3 absolute on this profile). Tying it to the range
	// keeps the residual statistics, and so the ratio, the same across
	// seeds whose extreme values differ.
	deltaDrift = 2e-3
	// preEncodedPerClient is how many distinct pre-encoded updates each
	// ingest client cycles through.
	preEncodedPerClient = 4
)

var workloads = []*workload{
	{
		name: "round-alexnet",
		mode: streamEncode,
		template: func(rng *rand.Rand) (*tensor.StateDict, error) {
			return models.BuildProfile("alexnet", rng, alexnetScale)
		},
	},
	{
		name:     "ingest-mobilenet",
		mode:     preEncoded,
		template: func(rng *rand.Rand) (*tensor.StateDict, error) { return mobileNetV2(rng), nil },
	},
	{
		name: "delta-resnet",
		mode: deltaEncode,
		template: func(rng *rand.Rand) (*tensor.StateDict, error) {
			return models.BuildProfile("resnet50", rng, resnetScale)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rngFor derives the generator for one (seed, stream) pair, so the same
// seed always yields the same inputs regardless of scheduling.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// streamID names one client's update for one round as a PCG stream.
func streamID(round, client int) uint64 {
	return 1<<40 | uint64(round)<<16 | uint64(client)
}

// expSegments splits the unit interval for the tabulated inverse CDF of
// Exp(1) behind laplace.
const expBits = 12
const expSegments = 1 << expBits

// expTable[i] is the Exp(1) quantile at i/expSegments.
var expTable = func() (t [expSegments]float64) {
	for i := range t {
		t[i] = -math.Log1p(-float64(i) / expSegments)
	}
	return t
}()

// laplace maps 64 random bits to a Laplace(0, 1) draw: the top bits pick
// an inverse-CDF segment of Exp(1), 40 more interpolate inside it (the
// unbounded last segment is computed exactly) and the low bit is the sign.
// It is several times cheaper than two ExpFloat64 calls, which keeps
// per-round input generation small beside the measured work.
func laplace(u uint64) float64 {
	seg := u >> (64 - expBits)
	frac := float64(u>>12&(1<<40-1)) * (1.0 / (1 << 40))
	var x float64
	if seg == expSegments-1 {
		x = -math.Log1p(-(float64(seg) + frac) / expSegments)
	} else {
		x = expTable[seg] + frac*(expTable[seg+1]-expTable[seg])
	}
	return math.Float64frombits(math.Float64bits(x) ^ u<<63) // branch-free sign
}

// clip1 clamps a weight draw to ±1, as the profile generator does.
func clip1(v float64) float32 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return float32(v)
}

// spread is a template tensor's value distribution: weights redraw from
// Laplace(0, scale) clipped to ±1 (the profile generator's family), other
// float entries from Normal(mean, std), and scalar counters stay fixed.
// width is the value range, which scales the delta drift.
type spread struct {
	scale, mean, std, width float64
}

func spreadsOf(sd *tensor.StateDict) []spread {
	out := make([]spread, sd.Len())
	for i, e := range sd.Entries() {
		var sum, sumAbs, sumSq float64
		for _, v := range e.Tensor.Data {
			x := float64(v)
			sum += x
			sumAbs += math.Abs(x)
			sumSq += x * x
		}
		n := float64(len(e.Tensor.Data))
		mean := sum / n
		out[i] = spread{
			scale: sumAbs / n,
			mean:  mean,
			std:   math.Sqrt(math.Max(sumSq/n-mean*mean, 0)),
			width: ebcl.ValueRange(e.Tensor.Data),
		}
	}
	return out
}

// refill overwrites dst, which has the template's layout, with a fresh
// draw from the template's per-tensor spreads.
func refill(dst *tensor.StateDict, sp []spread, src *rand.PCG) {
	rng := rand.New(src)
	for i, e := range dst.Entries() {
		s, d := sp[i], e.Tensor.Data
		switch e.Kind {
		case tensor.KindWeight:
			for j := range d {
				d[j] = clip1(s.scale * laplace(src.Uint64()))
			}
		case tensor.KindScalarMeta:
		default:
			for j := range d {
				d[j] = float32(s.mean + s.std*rng.NormFloat64())
			}
		}
	}
}

// drift writes global plus seeded Normal(0, deltaDrift·width) noise into
// dst: a delta client's update. Scalar counters are copied unchanged.
func drift(dst, global *tensor.StateDict, sp []spread, src *rand.PCG) {
	rng := rand.New(src)
	ge := global.Entries()
	for i, e := range dst.Entries() {
		g, d := ge[i].Tensor.Data, e.Tensor.Data
		if e.Kind == tensor.KindScalarMeta {
			copy(d, g)
			continue
		}
		sigma := deltaDrift * sp[i].width
		for j := range d {
			d[j] = g[j] + float32(sigma*rng.NormFloat64())
		}
	}
}

// mobileNetV2 builds a state dict with torchvision's MobileNetV2 layer
// names and shapes (314 entries, 3.5M parameters). Only the 49 weight
// tensors above core.DefaultThreshold elements take the lossy path; the
// small convolutions, batch-norm parameters, running statistics and
// counters form the lossless partition.
func mobileNetV2(rng *rand.Rand) *tensor.StateDict {
	sd := tensor.NewStateDict()
	conv := func(name string, shape ...int) {
		fanIn := 1
		for _, d := range shape[1:] {
			fanIn *= d
		}
		s := 0.5 / math.Sqrt(float64(fanIn))
		t := tensor.New(shape...)
		for j := range t.Data {
			t.Data[j] = clip1(s * (rng.ExpFloat64() - rng.ExpFloat64()))
		}
		sd.Add(name+".weight", tensor.KindWeight, t)
	}
	normal := func(n int, mean, std float64) *tensor.Tensor {
		t := tensor.New(n)
		for j := range t.Data {
			t.Data[j] = float32(mean + std*rng.NormFloat64())
		}
		return t
	}
	bn := func(name string, c int) {
		sd.Add(name+".weight", tensor.KindBias, normal(c, 1, 0.1))
		sd.Add(name+".bias", tensor.KindBias, normal(c, 0, 0.05))
		sd.Add(name+".running_mean", tensor.KindRunningStat, normal(c, 0, 0.1))
		sd.Add(name+".running_var", tensor.KindRunningStat, normal(c, 1, 0.2))
		count := tensor.New(1)
		count.Data[0] = 1000
		sd.Add(name+".num_batches_tracked", tensor.KindScalarMeta, count)
	}

	conv("features.0.0", 32, 3, 3, 3)
	bn("features.0.1", 32)
	conv("features.1.conv.0.0", 32, 1, 3, 3)
	bn("features.1.conv.0.1", 32)
	conv("features.1.conv.1", 16, 32, 1, 1)
	bn("features.1.conv.2", 16)
	// Inverted-residual settings (expansion, channels, repeats, stride).
	settings := [][3]int{{6, 24, 2}, {6, 32, 3}, {6, 64, 4}, {6, 96, 3}, {6, 160, 3}, {6, 320, 1}}
	in, block := 16, 2
	for _, s := range settings {
		for r := 0; r < s[2]; r++ {
			hidden, out := in*s[0], s[1]
			p := fmt.Sprintf("features.%d.conv", block)
			conv(p+".0.0", hidden, in, 1, 1)
			bn(p+".0.1", hidden)
			conv(p+".1.0", hidden, 1, 3, 3)
			bn(p+".1.1", hidden)
			conv(p+".2", out, hidden, 1, 1)
			bn(p+".3", out)
			in = out
			block++
		}
	}
	conv("features.18.0", 1280, 320, 1, 1)
	bn("features.18.1", 1280)
	conv("classifier.1", 1000, 1280)
	sd.Add("classifier.1.bias", tensor.KindBias, normal(1000, 0, 0.01))
	return sd
}
