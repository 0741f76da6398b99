package core

// The FedSZ stream layout, read in exactly one place. A stream is
//
//	Stream := Header Tensor* Lossless
//	Header := magic(u32 "FSZ1") version(u8) lossyName losslessName
//	          [refEpoch(u32), v3/v4] count(u32) pathFlag(u8)×count
//	Tensor := name kind(u8) rank(u8) dim(u32)×rank [mode(u8), v3/v4] blob
//
// with one Tensor per lossy path flag, names u8-length-prefixed, and blob
// and Lossless uvarint-length-prefixed sections. readHeader and readTensor
// parse that layout over any streamSource, and every consumer goes
// through them: the whole-stream decoder (stream.go) over its in-memory or
// socket source, Sections (the sender half of wire framing) over a whole
// stream, and ParseHeader/ParseTensorSection (the routed ingest of
// internal/agg) over one wire frame's payload. SectionDecoder holds what
// decoding needs beyond the layout: the resolved codecs and the delta
// reference.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// maxStreamEntries bounds the tensor count a header may declare before
// the flag array is read (a real model has a few hundred entries).
const maxStreamEntries = 1 << 20

// ParsedHeader is the decoded form of a stream's header section — the
// payload of a wire FrameHeader. It owns its fields: nothing aliases the
// bytes it was parsed from.
type ParsedHeader struct {
	// Version is the stream format version (1–4).
	Version byte
	// LossyName and LosslessName select the codecs by registry name.
	LossyName    string
	LosslessName string
	// RefEpoch is the delta reference epoch (v3/v4 streams only, else 0; a
	// v4 stream encoded without a reference pins it to 0).
	RefEpoch uint32
	// Flags holds the per-entry path flags in original dict order.
	Flags []byte
	// LossyCount is the number of tensor sections that follow the header.
	LossyCount int
}

// IsDelta reports whether tensor sections carry a mode byte (v3 and v4
// layouts; in a v4 stream encoded without a reference every mode byte is
// absolute).
func (h *ParsedHeader) IsDelta() bool {
	return h.Version == streamVersionV3 || h.Version == streamVersionV4
}

// Chunked reports whether tensor sections may carry chunked (v4) blobs;
// in v1–v3 a chunk-marker first byte is codec data and fails the codec's
// own magic check.
func (h *ParsedHeader) Chunked() bool { return h.Version == streamVersionV4 }

// readHeader reads a stream header from src.
func readHeader(src *streamSource) (*ParsedHeader, error) {
	pre, err := src.readFull(5, "header")
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(pre) != streamMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := &ParsedHeader{Version: pre[4]}
	if !supportedStreamVersion(h.Version) {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, h.Version)
	}
	if h.LossyName, err = src.readString("lossy compressor name"); err != nil {
		return nil, err
	}
	if h.LosslessName, err = src.readString("lossless codec name"); err != nil {
		return nil, err
	}
	if h.IsDelta() {
		eb, err := src.readFull(4, "reference epoch")
		if err != nil {
			return nil, err
		}
		h.RefEpoch = binary.LittleEndian.Uint32(eb)
	}
	cb, err := src.readFull(4, "entry count")
	if err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(cb))
	if count > maxStreamEntries {
		return nil, fmt.Errorf("%w: entry count %d exceeds limit", ErrCorrupt, count)
	}
	flags, err := src.readFull(count, "path flags")
	if err != nil {
		return nil, err
	}
	h.Flags = append([]byte(nil), flags...)
	for _, f := range h.Flags {
		switch f {
		case pathLossy:
			h.LossyCount++
		case pathLossless:
		default:
			return nil, fmt.Errorf("%w: path flag %d", ErrCorrupt, f)
		}
	}
	return h, nil
}

// ParseHeader parses a header section payload.
func ParseHeader(section []byte) (*ParsedHeader, error) {
	src := &streamSource{data: section}
	h, err := readHeader(src)
	if err != nil {
		return nil, err
	}
	if src.pos != len(section) {
		return nil, fmt.Errorf("%w: header section has %d trailing bytes", ErrCorrupt, len(section)-src.pos)
	}
	return h, nil
}

// ParsedTensor is the decoded metadata of one tensor section — the payload
// of a wire FrameTensor — with the compressed blob left untouched.
type ParsedTensor struct {
	Name  string
	Kind  tensor.Kind
	Shape []int
	Elems int
	// Delta marks a residual section: the blob decodes to update −
	// reference and the decoder must fold the reference back in.
	Delta bool
	// Blob is the compressed payload — a view into the section, valid only
	// while the section bytes live.
	Blob []byte
}

// readTensor reads one tensor section from src; hdr supplies the stream
// version (v3/v4 sections carry a mode byte). The blob is only valid until
// release is called.
func readTensor(hdr *ParsedHeader, src *streamSource) (*ParsedTensor, func(), error) {
	pt := &ParsedTensor{}
	var err error
	if pt.Name, err = src.readString("tensor name"); err != nil {
		return nil, nil, err
	}
	meta, err := src.readFull(2, "tensor metadata")
	if err != nil {
		return nil, nil, err
	}
	pt.Kind = tensor.Kind(meta[0])
	rank := int(meta[1])
	dims, err := src.readFull(4*rank, "tensor shape")
	if err != nil {
		return nil, nil, err
	}
	pt.Shape = make([]int, rank)
	pt.Elems = 1
	for d := range pt.Shape {
		pt.Shape[d] = int(binary.LittleEndian.Uint32(dims[4*d:]))
		pt.Elems *= pt.Shape[d]
		if pt.Elems > ebcl.MaxElements {
			return nil, nil, fmt.Errorf("%w: tensor %q element count exceeds limit", ErrCorrupt, pt.Name)
		}
	}
	if hdr.IsDelta() {
		mode, err := src.readFull(1, "tensor mode")
		if err != nil {
			return nil, nil, err
		}
		switch mode[0] {
		case sectionAbsolute:
		case sectionDelta:
			pt.Delta = true
		default:
			return nil, nil, fmt.Errorf("%w: tensor %q section mode %d", ErrCorrupt, pt.Name, mode[0])
		}
	}
	blob, release, err := src.readSection("lossy section")
	if err != nil {
		return nil, nil, fmt.Errorf("%w in tensor %q", err, pt.Name)
	}
	pt.Blob = blob
	return pt, release, nil
}

// ParseTensorSection parses one tensor section payload. hdr supplies the
// stream version. The returned tensor's Blob aliases section.
func ParseTensorSection(hdr *ParsedHeader, section []byte) (*ParsedTensor, error) {
	src := &streamSource{data: section}
	pt, _, err := readTensor(hdr, src)
	if err != nil {
		return nil, err
	}
	if src.pos != len(section) {
		return nil, fmt.Errorf("%w: tensor section %q has %d trailing bytes", ErrCorrupt, pt.Name, len(section)-src.pos)
	}
	return pt, nil
}

// StreamSections splits a FedSZ stream into its transport framing units.
// All fields are views into the original stream, not copies, and their
// concatenation (Header, Tensors..., Lossless) is the logical stream.
type StreamSections struct {
	// Header spans the fixed preamble: magic, version, compressor names,
	// entry count, and path flags.
	Header []byte
	// Tensors holds one unit per lossy tensor: name, kind, shape, and the
	// length-prefixed compressed blob.
	Tensors [][]byte
	// Lossless is the length-prefixed lossless-partition section.
	Lossless []byte
}

// Sections parses the section boundaries of a serialized FedSZ stream
// without decoding any payloads — the sender-side half of wire framing.
// It accepts exactly the sections ParseHeader and ParseTensorSection do.
func Sections(stream []byte) (*StreamSections, error) {
	src := &streamSource{data: stream}
	hdr, err := readHeader(src)
	if err != nil {
		return nil, err
	}
	s := &StreamSections{Header: stream[:src.pos], Tensors: make([][]byte, 0, hdr.LossyCount)}
	for range hdr.LossyCount {
		start := src.pos
		if _, _, err := readTensor(hdr, src); err != nil {
			return nil, err
		}
		s.Tensors = append(s.Tensors, stream[start:src.pos])
	}
	start := src.pos
	if _, _, err := src.readSection("metadata section"); err != nil {
		return nil, err
	}
	s.Lossless = stream[start:src.pos]
	return s, nil
}

// SectionDecoder decodes the sections of one stream: the codecs are
// resolved once from the header names, Baseline checks each residual
// section against the decoder's reference, and any goroutine can decode
// tensors independently.
type SectionDecoder struct {
	hdr   *ParsedHeader
	dopts DecodeOptions
	lossy ebcl.Compressor
	codec lossless.Codec
	// pool fans a chunked blob's chunks out; nil decodes them serially,
	// as a shard does, keeping cross-shard parallelism the scheduler's job.
	pool *sched.Pool
}

// NewSectionDecoder resolves hdr's codec names against the registries;
// dopts supplies the reference residual sections reconstruct against.
func NewSectionDecoder(hdr *ParsedHeader, dopts DecodeOptions) (*SectionDecoder, error) {
	lossy, err := compressors.Get(hdr.LossyName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	codec, err := lossless.Get(hdr.LosslessName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &SectionDecoder{hdr: hdr, dopts: dopts, lossy: lossy, codec: codec}, nil
}

// Baseline returns the reference values a residual section adds back onto
// (nil for an absolute section). A residual section is only decodable when
// the decoder holds the same-epoch reference with a matching tensor;
// anything else fails with ErrReference — a mismatch, not corruption, so
// the sender can renegotiate an absolute upload.
func (d *SectionDecoder) Baseline(pt *ParsedTensor) ([]float32, error) {
	if !pt.Delta {
		return nil, nil
	}
	if d.dopts.Reference == nil {
		return nil, fmt.Errorf("%w: residual section %q but no reference supplied", ErrReference, pt.Name)
	}
	if d.dopts.RefEpoch != d.hdr.RefEpoch {
		return nil, fmt.Errorf("%w: stream encoded against epoch %d, decoder holds %d", ErrReference, d.hdr.RefEpoch, d.dopts.RefEpoch)
	}
	rt := d.dopts.Reference.Get(pt.Name)
	if rt == nil || rt.NumElems() != pt.Elems {
		return nil, fmt.Errorf("%w: reference lacks matching tensor %q", ErrReference, pt.Name)
	}
	return rt.Data, nil
}

// DecodeTensor reconstructs one parsed tensor section into a pooled float
// buffer (release with sched.PutFloats, or hand it to a StateDict and
// recycle via Release). For a residual section, ref must be the section's
// Baseline; a nil or mis-sized ref fails with ErrReference.
func (d *SectionDecoder) DecodeTensor(pt *ParsedTensor, ref []float32) ([]float32, error) {
	return d.decodeTensor(pt, ref, nil)
}

// decodeTensor is DecodeTensor adding per-blob decode time to work when
// non-nil.
func (d *SectionDecoder) decodeTensor(pt *ParsedTensor, ref []float32, work *atomic.Int64) ([]float32, error) {
	if pt.Delta && len(ref) != pt.Elems {
		return nil, fmt.Errorf("%w: reference lacks matching tensor %q", ErrReference, pt.Name)
	}
	if !pt.Delta {
		ref = nil
	}
	// The reconstruction lands straight in a pool-backed buffer sized from
	// the declared shape; the shared blob decoder handles plain and chunked
	// (v4) blobs alike and folds a residual's baseline back in per chunk.
	dst := sched.GetFloats(pt.Elems)
	data, err := decodeBlobInto(d.pool, d.lossy, dst, pt.Blob, pt.Elems, d.hdr.Chunked(), ref, work)
	if err != nil {
		sched.PutFloats(dst)
		return nil, fmt.Errorf("%w: lossy decompress %q: %w", ErrCorrupt, pt.Name, err)
	}
	return data, nil
}

// ObserveDecode records one whole update's decode wall time under the
// stream's lossy codec in fedsz_decode_seconds, so the whole-stream
// decoder and a section-routed ingest report the same per-codec timer.
func (d *SectionDecoder) ObserveDecode(elapsed time.Duration) {
	stageFor(d.hdr.LossyName).decode.Observe(elapsed.Seconds())
}

// DecodeLossless reconstructs the metadata partition from a lossless
// section payload (the uvarint-length-prefixed blob a wire FrameLossless
// carries). The returned dict's buffers are heap-allocated, not pooled.
func (d *SectionDecoder) DecodeLossless(section []byte) (*tensor.StateDict, error) {
	blob, pos, err := ebcl.ReadSection(section, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: metadata section: %w", ErrCorrupt, err)
	}
	if pos != len(section) {
		return nil, fmt.Errorf("%w: metadata section has %d trailing bytes", ErrCorrupt, len(section)-pos)
	}
	return d.decodeLossless(blob)
}

// decodeLossless decodes the metadata blob inside a lossless section.
func (d *SectionDecoder) decodeLossless(blob []byte) (*tensor.StateDict, error) {
	raw, err := d.codec.Decompress(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: lossless decompress: %w", ErrCorrupt, err)
	}
	sd, err := tensor.UnmarshalStateDict(raw)
	sched.PutBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: metadata decode: %w", ErrCorrupt, err)
	}
	return sd, nil
}
