package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/sz2"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// probeMin is the least time one probe measurement spends repeating its
// call; the probe reports the median repetition.
const probeMin = 300 * time.Millisecond

// timeCall runs fn at least three times and until probeMin has passed, and
// returns the median duration of one call.
func timeCall(fn func() error) (time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < probeMin {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

func mbPerS(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// probeLayers times the public calls of each layer on one client update
// of the traced phase: the sz2 codec with and without its trailing LZ
// pass, the lossless metadata codec, in-memory core decode, wire framing
// and de-framing, and agg ingest from memory. On the delta workload the
// codec probes run on the residuals the encoder would try, against the
// current global.
func (e *env) probeLayers(out map[string]float64) error {
	ctx := context.Background()
	sd := e.updates[0]
	opts := core.Options{LossyParams: lossyParams}
	var dopts core.DecodeOptions
	var global *tensor.StateDict
	if e.ref != nil {
		var epoch uint32
		global, epoch, _ = e.ref.Get()
		opts.Reference, opts.RefEpoch = global, epoch
		dopts = core.DecodeOptions{Reference: global, RefEpoch: epoch}
	}

	// Codec inputs: the lossy tensors, or their residuals against the
	// global with the bound resolved on the original values.
	type codecInput struct {
		data []float32
		p    ebcl.Params
	}
	var inputs []codecInput
	lossyRaw := 0
	meta := tensor.NewStateDict()
	for _, en := range sd.Entries() {
		if !takesLossyPath(en) {
			meta.Add(en.Name, en.Kind, en.Tensor)
			continue
		}
		in := codecInput{data: en.Tensor.Data, p: lossyParams}
		if global != nil {
			eb, err := ebcl.ResolveAbs(en.Tensor.Data, lossyParams)
			if err != nil {
				return err
			}
			g := global.Get(en.Name).Data
			res := make([]float32, len(g))
			for i := range res {
				res[i] = en.Tensor.Data[i] - g[i]
			}
			in = codecInput{data: res, p: ebcl.Abs(eb)}
		}
		inputs = append(inputs, in)
		lossyRaw += 4 * len(in.data)
	}

	blobs := make([][]byte, len(inputs))
	encode := func(c *sz2.Compressor) (time.Duration, int, error) {
		d, err := timeCall(func() error {
			for i, in := range inputs {
				b, err := c.CompressAppend(blobs[i][:0], in.data, in.p)
				if err != nil {
					return err
				}
				blobs[i] = b
			}
			return nil
		})
		size := 0
		for _, b := range blobs {
			size += len(b)
		}
		return d, size, err
	}
	tNoLZ, sizeNoLZ, err := encode(&sz2.Compressor{DisableLosslessStage: true})
	if err != nil {
		return fmt.Errorf("sz2 encode without LZ: %w", err)
	}
	tLZ, sizeLZ, err := encode(sz2.NewCompressor())
	if err != nil {
		return fmt.Errorf("sz2 encode: %w", err)
	}
	out["sz2.encode_mb_per_s"] = mbPerS(lossyRaw, tLZ)
	out["sz2.encode_nolz_mb_per_s"] = mbPerS(lossyRaw, tNoLZ)
	out["lossless.lz_time_share"] = 1 - tNoLZ.Seconds()/tLZ.Seconds()
	out["lossless.lz_size_gain"] = 1 - float64(sizeLZ)/float64(sizeNoLZ)

	dec := sz2.NewCompressor()
	dsts := make([][]float32, len(inputs))
	tDec, err := timeCall(func() error {
		for i, b := range blobs {
			f, err := dec.DecompressInto(dsts[i][:0], b)
			if err != nil {
				return err
			}
			dsts[i] = f
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sz2 decode: %w", err)
	}
	out["sz2.decode_mb_per_s"] = mbPerS(lossyRaw, tDec)

	metaRaw := meta.Marshal()
	codec := lossless.NewBloscLZ()
	var metaBlob []byte
	tMetaEnc, err := timeCall(func() error {
		sched.PutBytes(metaBlob)
		metaBlob, err = codec.Compress(metaRaw)
		return err
	})
	if err != nil {
		return fmt.Errorf("blosclz encode: %w", err)
	}
	tMetaDec, err := timeCall(func() error {
		b, err := codec.Decompress(metaBlob)
		sched.PutBytes(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("blosclz decode: %w", err)
	}
	out["lossless.meta_encode_mb_per_s"] = mbPerS(len(metaRaw), tMetaEnc)
	out["lossless.meta_decode_mb_per_s"] = mbPerS(len(metaRaw), tMetaDec)

	raw := sd.SizeBytes()
	stream, _, err := core.CompressWith(ctx, e.encPool, sd, opts)
	if err != nil {
		return fmt.Errorf("core encode: %w", err)
	}
	tMem, err := timeCall(func() error {
		got, _, err := core.DecompressOpts(ctx, e.encPool, stream, dopts)
		core.Release(got)
		return err
	})
	if err != nil {
		return fmt.Errorf("core decode: %w", err)
	}
	out["core.decode_mem_mb_per_s"] = mbPerS(raw, tMem)

	var framed bytes.Buffer
	tFrame, err := timeCall(func() error {
		framed.Reset()
		return wire.NewWriter(&framed).WriteStream(stream)
	})
	if err != nil {
		return fmt.Errorf("wire frame: %w", err)
	}
	tDeframe, err := timeCall(func() error {
		r := wire.NewReader(bytes.NewReader(framed.Bytes()))
		defer r.Close()
		_, err := io.Copy(io.Discard, r)
		return err
	})
	if err != nil {
		return fmt.Errorf("wire deframe: %w", err)
	}
	out["wire.frame_mb_per_s"] = mbPerS(len(stream), tFrame)
	out["wire.deframe_mb_per_s"] = mbPerS(len(stream), tDeframe)

	// A primed accumulator, so every timed ingest folds.
	a := agg.New(agg.Config{Shards: e.clients, Pool: sched.NewPool(e.clients)})
	ingest := func() error {
		_, _, err := a.IngestStream(ctx, 1, 1, dopts, bytes.NewReader(framed.Bytes()))
		return err
	}
	if err := ingest(); err != nil {
		return fmt.Errorf("agg ingest: %w", err)
	}
	tIngest, err := timeCall(ingest)
	a.Reset()
	if err != nil {
		return fmt.Errorf("agg ingest: %w", err)
	}
	out["agg.ingest_mem_mb_per_s"] = mbPerS(raw, tIngest)

	// Workloads that set no reference in their rounds report what retaining
	// this update as one would cost.
	if _, ok := out["delta.ref_set_ms"]; !ok {
		var ref delta.Ref
		tSet, err := timeCall(func() error {
			ref.Set(sd)
			return nil
		})
		if err != nil {
			return err
		}
		out["delta.ref_set_ms"] = ms(tSet)
	}
	return nil
}
