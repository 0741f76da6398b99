package core

// Streaming decode: the io.Reader-based counterpart of Compress's output.
//
// A FedSZ stream is sequential — header, per-tensor sections, one
// lossless-partition section — so it can be decoded incrementally while it
// is still arriving from a socket: as soon as tensor i's section is fully
// read, its decode is submitted to the shared worker pool and the reader
// goroutine moves on to tensor i+1. The in-memory Decompress runs the same
// decoder over an in-memory source, so there is exactly one. This file
// holds the input source and the receive/decode/re-interleave schedule;
// the layout itself is read only by readHeader and readTensor (parse.go),
// and tensors decode through a SectionDecoder.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/ebcl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// maxSectionBytes bounds a single section's declared length.
const maxSectionBytes = 1 << 30

// streamSource is the layout readers' input, in one of two modes. An
// in-memory source (data set, br nil) serves zero-copy views straight out
// of the stream — the batch server's hot path, and the parsers' view of a
// single section. A reader source (newReaderSource) receives the stream as
// it arrives, each section into a pooled buffer that grows with the bytes
// actually received, so a hostile length prefix cannot force a giant
// up-front allocation. A concrete type rather than an interface keeps an
// in-memory source on the caller's stack.
type streamSource struct {
	data []byte
	pos  int

	br      *bufio.Reader
	tracker *readTracker
	// scratch backs readFull's views in reader mode; it grows to the
	// largest fixed field read (at most maxStreamEntries path flags).
	scratch []byte
}

func newReaderSource(ctx context.Context, r io.Reader) *streamSource {
	t := &readTracker{r: r, ctx: ctx}
	return &streamSource{br: bufio.NewReaderSize(t, 4096), tracker: t}
}

// corruptRead maps read failures to ErrCorrupt: a stream that ends (or
// errors) mid-structure is malformed from the decoder's point of view.
func corruptRead(context string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, context, err)
}

// readFull returns the next n bytes, valid until the next read from s, or
// fails with a corruption error naming what.
func (s *streamSource) readFull(n int, what string) ([]byte, error) {
	if s.br == nil {
		if n > len(s.data)-s.pos {
			return nil, corruptRead(what, io.ErrUnexpectedEOF)
		}
		s.pos += n
		return s.data[s.pos-n : s.pos], nil
	}
	if cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	buf := s.scratch[:n]
	if _, err := io.ReadFull(s.br, buf); err != nil {
		return nil, corruptRead(what, err)
	}
	return buf, nil
}

// readString reads a length-prefixed name.
func (s *streamSource) readString(what string) (string, error) {
	if s.br == nil {
		str, pos, err := readString(s.data, s.pos)
		if err != nil {
			return "", fmt.Errorf("%w: %s", err, what)
		}
		s.pos = pos
		return str, nil
	}
	l, err := s.br.ReadByte()
	if err != nil {
		return "", corruptRead(what, err)
	}
	buf, err := s.readFull(int(l), what)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// readSection reads one uvarint-length-prefixed section, returning its
// bytes and a release callback to call once the bytes are dead (recycles
// the pooled buffer; a no-op for in-memory views).
func (s *streamSource) readSection(what string) ([]byte, func(), error) {
	if s.br == nil {
		blob, pos, err := ebcl.ReadSection(s.data, s.pos)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, what, err)
		}
		s.pos = pos
		return blob, releaseNothing, nil
	}
	l, err := binary.ReadUvarint(s.br)
	if err != nil {
		return nil, nil, corruptRead(what, err)
	}
	if l > maxSectionBytes {
		return nil, nil, fmt.Errorf("%w: %s: section length %d exceeds limit", ErrCorrupt, what, l)
	}
	buf, err := sched.ReadFullPooled(s.br, int(l))
	if err != nil {
		return nil, nil, corruptRead(what, err)
	}
	return buf, func() { sched.PutBytes(buf) }, nil
}

func releaseNothing() {}

// wait reports time spent blocked on input.
func (s *streamSource) wait() time.Duration {
	if s.tracker == nil {
		return 0
	}
	return s.tracker.blocked
}

// readTracker measures time spent blocked in the underlying Read — the
// "waiting for the network" component of a streaming decode — and aborts
// promptly once the decode's context is cancelled: each Read checks the
// context first, so cancellation takes effect at the next chunk boundary
// even mid-section. (A Read already blocked on a dead socket is the
// transport layer's problem — flserve bounds those with read deadlines.)
type readTracker struct {
	r       io.Reader
	ctx     context.Context
	blocked time.Duration
}

func (t *readTracker) Read(p []byte) (int, error) {
	if err := t.ctx.Err(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.blocked += time.Since(t0)
	return n, err
}

// DecompressFrom decodes a FedSZ stream incrementally from r on the
// process-wide shared pool: tensor i decodes while tensor i+1 is still
// being read, which on a socket means decode overlaps receive.
func DecompressFrom(r io.Reader) (*tensor.StateDict, *DecompressStats, error) {
	return DecompressFromOpts(context.Background(), sched.Default(), r, DecodeOptions{})
}

// DecompressFromOpts is DecompressFrom drawing decode parallelism from the
// given pool (nil runs serially), with reference-aware decoding: v3/v4
// delta streams reconstruct residual sections against o.Reference (see
// DecodeOptions); v1/v2 streams ignore o entirely. The reading goroutine
// submits each fully received blob to the pool and immediately returns to
// reading; when the pool budget is exhausted it decodes inline, which
// pauses reading — the per-connection backpressure that keeps a streaming
// server's peak memory bounded by its parallelism budget rather than its
// client count.
//
// Cancelling ctx aborts the decode: reads stop at the next chunk, pending
// decode workers exit before starting their blob, and the call returns
// ctx.Err() after the in-flight workers drain (no pool slot or pooled
// buffer is leaked).
func DecompressFromOpts(ctx context.Context, pool *sched.Pool, r io.Reader, o DecodeOptions) (*tensor.StateDict, *DecompressStats, error) {
	return decompressSource(ctx, pool, newReaderSource(ctx, r), o)
}

// decompressSource is the one decoder behind every entry point.
func decompressSource(ctx context.Context, pool *sched.Pool, src *streamSource, dopts DecodeOptions) (*tensor.StateDict, *DecompressStats, error) {
	start := time.Now()
	recycled0 := sched.RecycledBytes()

	// ctxFirst prefers the context's error over the failure it caused: a
	// cancelled socket read otherwise surfaces as a corrupt-looking short
	// stream.
	ctxFirst := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	hdr, err := readHeader(src)
	if err != nil {
		return nil, nil, ctxFirst(err)
	}
	dec, err := NewSectionDecoder(hdr, dopts)
	if err != nil {
		return nil, nil, err
	}
	dec.pool = pool

	// Pipelined receive + decode: the loop below reads section i+1 while
	// earlier sections decode on the pool. Decode durations accumulate into
	// decodeWork so OverlapRatio can report how much of that work was
	// hidden behind reading.
	type lossyEntry struct {
		pt   *ParsedTensor
		data []float32
		err  error
	}
	entries := make([]lossyEntry, hdr.LossyCount)
	nDelta := 0
	var nChunked atomic.Int64
	var decodeWork atomic.Int64
	var rest *tensor.StateDict
	var restErr error
	g := pool.Group()
	// fail funnels every abort path through one place so cancellation wins
	// over the secondary errors it induces, in-flight workers always
	// drain, and already-decoded tensor buffers — lossy and metadata
	// partitions both — go back to the pool.
	fail := func(err error) (*tensor.StateDict, *DecompressStats, error) {
		g.Wait()
		for i := range entries {
			if entries[i].data != nil {
				sched.PutFloats(entries[i].data)
				entries[i].data = nil
			}
		}
		if rest != nil {
			Release(rest)
			rest = nil
		}
		return nil, nil, ctxFirst(err)
	}
	for i := range entries {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		pt, release, err := readTensor(hdr, src)
		if err != nil {
			return fail(err)
		}
		ref, err := dec.Baseline(pt)
		if err != nil {
			release()
			return fail(err)
		}
		if pt.Delta {
			nDelta++
		}
		e := &entries[i]
		e.pt = pt
		g.Go(func() {
			if cerr := ctx.Err(); cerr != nil {
				release()
				e.err = cerr
				return
			}
			// A chunked (v4) blob fans its chunks back out on the pool. The
			// buffer stays with the output dict; a fold-and-discard server
			// recycles it via core.Release.
			if hdr.Chunked() && isChunkedBlob(pt.Blob) {
				nChunked.Add(1)
			}
			e.data, e.err = dec.decodeTensor(pt, ref, &decodeWork)
			release()
		})
	}
	restBlob, restRelease, err := src.readSection("metadata section")
	if err != nil {
		return fail(err)
	}
	g.Go(func() {
		if cerr := ctx.Err(); cerr != nil {
			restRelease()
			restErr = cerr
			return
		}
		t0 := time.Now()
		rest, restErr = dec.decodeLossless(restBlob)
		decodeWork.Add(int64(time.Since(t0)))
		restRelease()
	})
	g.Wait()
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if restErr != nil {
		return fail(restErr)
	}
	for i := range entries {
		if entries[i].err != nil {
			return fail(entries[i].err)
		}
	}

	// Re-interleave to the original order. Duplicate names (impossible in a
	// stream Compress produced, StateDict.Add would panic) mark corruption.
	out := tensor.NewStateDict()
	li, ri := 0, 0
	restEntries := rest.Entries()
	for _, f := range hdr.Flags {
		if f == pathLossy {
			e := entries[li]
			li++
			if out.Get(e.pt.Name) != nil {
				return fail(fmt.Errorf("%w: duplicate tensor %q", ErrCorrupt, e.pt.Name))
			}
			out.Add(e.pt.Name, e.pt.Kind, tensor.FromData(e.data, e.pt.Shape...))
		} else {
			if ri >= len(restEntries) {
				return fail(ErrCorrupt)
			}
			e := restEntries[ri]
			ri++
			if out.Get(e.Name) != nil {
				return fail(fmt.Errorf("%w: duplicate tensor %q", ErrCorrupt, e.Name))
			}
			out.Add(e.Name, e.Kind, e.Tensor)
		}
	}
	elapsed := time.Since(start)
	dec.ObserveDecode(elapsed)
	return out, &DecompressStats{
		DecompressTime: elapsed,
		ReadWait:       src.wait(),
		DecodeWork:     time.Duration(decodeWork.Load()),
		BytesRecycled:  sched.RecycledBytes() - recycled0,
		DeltaTensors:   nDelta,
		ChunkedTensors: int(nChunked.Load()),
	}, nil
}
