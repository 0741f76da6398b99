package core

// Section-level parsing for ingest front-ends that route wire frames to
// aggregator shards. The wire format (internal/wire) frames a FedSZ stream
// at exactly the section boundaries Sections reports, so a router can
// parse a frame's payload in isolation — header metadata from the header
// frame, tensor identity (name, shape, mode) from each tensor frame —
// without reassembling the stream or touching the compressed blobs. The
// shard that owns a tensor then decodes just its blob via SectionDecoder.
// decompressSource remains the one full-stream decoder; these parsers
// read the same layout but leave decode scheduling to the caller.

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// ParsedHeader is the decoded form of a stream's header section — the
// payload of a wire FrameHeader.
type ParsedHeader struct {
	// Version is the stream format version (1–4).
	Version byte
	// LossyName and LosslessName select the codecs by registry name.
	LossyName    string
	LosslessName string
	// RefEpoch is the delta reference epoch (v3/v4 streams only, else 0; a
	// v4 stream encoded without a reference pins it to 0).
	RefEpoch uint32
	// Flags holds the per-entry path flags in original dict order — a view
	// into the section, valid only while the section bytes live.
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

// Chunked reports whether tensor sections may carry chunked (v4) blobs.
func (h *ParsedHeader) Chunked() bool { return h.Version == streamVersionV4 }

// ParseHeader parses a header section payload. The returned header's Flags
// field aliases section.
func ParseHeader(section []byte) (*ParsedHeader, error) {
	if len(section) < 5 || binary.LittleEndian.Uint32(section) != streamMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := &ParsedHeader{Version: section[4]}
	if !supportedStreamVersion(h.Version) {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, h.Version)
	}
	pos := 5
	var err error
	if h.LossyName, pos, err = readString(section, pos); err != nil {
		return nil, fmt.Errorf("%w: lossy compressor name", ErrCorrupt)
	}
	if h.LosslessName, pos, err = readString(section, pos); err != nil {
		return nil, fmt.Errorf("%w: lossless codec name", ErrCorrupt)
	}
	if h.IsDelta() {
		if pos+4 > len(section) {
			return nil, fmt.Errorf("%w: reference epoch", ErrCorrupt)
		}
		h.RefEpoch = binary.LittleEndian.Uint32(section[pos:])
		pos += 4
	}
	if pos+4 > len(section) {
		return nil, fmt.Errorf("%w: entry count", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(section[pos:]))
	pos += 4
	if count > maxStreamEntries || pos+count != len(section) {
		return nil, fmt.Errorf("%w: header flag array", ErrCorrupt)
	}
	h.Flags = section[pos : pos+count]
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

// ParsedTensor is the decoded metadata of one tensor section — the payload
// of a wire FrameTensor — with the compressed blob left untouched.
type ParsedTensor struct {
	Name  string
	Kind  tensor.Kind
	Shape []int
	Elems int
	// Delta marks a v3 residual section: the blob decodes to update −
	// reference and the owning shard must fold the reference back in.
	Delta bool
	// Blob is the compressed payload — a view into the section, valid only
	// while the section bytes live.
	Blob []byte
}

// ParseTensorSection parses one tensor section payload. hdr supplies the
// stream version (v3 sections carry a mode byte). The returned tensor's
// Blob aliases section.
func ParseTensorSection(hdr *ParsedHeader, section []byte) (*ParsedTensor, error) {
	pt := &ParsedTensor{}
	var err error
	pos := 0
	if pt.Name, pos, err = readString(section, pos); err != nil {
		return nil, fmt.Errorf("%w: tensor name", ErrCorrupt)
	}
	if pos+2 > len(section) {
		return nil, fmt.Errorf("%w: tensor metadata", ErrCorrupt)
	}
	pt.Kind = tensor.Kind(section[pos])
	rank := int(section[pos+1])
	pos += 2
	if pos+4*rank > len(section) {
		return nil, fmt.Errorf("%w: tensor shape", ErrCorrupt)
	}
	pt.Shape = make([]int, rank)
	pt.Elems = 1
	for d := range pt.Shape {
		pt.Shape[d] = int(binary.LittleEndian.Uint32(section[pos+4*d:]))
		pt.Elems *= pt.Shape[d]
		if pt.Elems > ebcl.MaxElements {
			return nil, fmt.Errorf("%w: tensor %q element count exceeds limit", ErrCorrupt, pt.Name)
		}
	}
	pos += 4 * rank
	if hdr.IsDelta() {
		if pos >= len(section) {
			return nil, fmt.Errorf("%w: tensor mode", ErrCorrupt)
		}
		switch section[pos] {
		case sectionAbsolute:
		case sectionDelta:
			pt.Delta = true
		default:
			return nil, fmt.Errorf("%w: tensor %q section mode %d", ErrCorrupt, pt.Name, section[pos])
		}
		pos++
	}
	if pt.Blob, pos, err = ebcl.ReadSection(section, pos); err != nil {
		return nil, fmt.Errorf("%w: lossy section %q: %w", ErrCorrupt, pt.Name, err)
	}
	if pos != len(section) {
		return nil, fmt.Errorf("%w: tensor section %q has %d trailing bytes", ErrCorrupt, pt.Name, len(section)-pos)
	}
	return pt, nil
}

// SectionDecoder decodes routed sections of one stream: the codecs are
// resolved once from the header names, then any shard can decode its
// tensors independently.
type SectionDecoder struct {
	hdr   *ParsedHeader
	lossy ebcl.Compressor
	codec lossless.Codec
}

// NewSectionDecoder resolves hdr's codec names against the registries.
func NewSectionDecoder(hdr *ParsedHeader) (*SectionDecoder, error) {
	lossy, err := compressors.Get(hdr.LossyName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	codec, err := lossless.Get(hdr.LosslessName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &SectionDecoder{hdr: hdr, lossy: lossy, codec: codec}, nil
}

// DecodeTensor reconstructs one parsed tensor section into a pooled float
// buffer (release with sched.PutFloats, or hand it to a StateDict and
// recycle via Release). For a residual section, ref must be the
// same-epoch baseline values for this tensor — the caller verifies epochs
// via ParsedHeader.RefEpoch; a nil or mis-sized ref fails with
// ErrReference so the transport can renegotiate an absolute upload.
func (d *SectionDecoder) DecodeTensor(pt *ParsedTensor, ref []float32) ([]float32, error) {
	if pt.Delta && len(ref) != pt.Elems {
		return nil, fmt.Errorf("%w: reference lacks matching tensor %q", ErrReference, pt.Name)
	}
	if !pt.Delta {
		ref = nil
	}
	dst := sched.GetFloats(pt.Elems)
	// The shared blob decoder handles plain and chunked (v4) blobs alike
	// and folds the residual baseline back in when ref is non-nil; a shard
	// decodes its tensors serially (nil pool), keeping cross-shard
	// parallelism the scheduler's job.
	data, err := decodeBlobInto(nil, d.lossy, dst, pt.Blob, pt.Elems, d.hdr.Chunked(), ref, nil)
	if err != nil {
		sched.PutFloats(dst)
		return nil, fmt.Errorf("%w: lossy decompress %q: %w", ErrCorrupt, pt.Name, err)
	}
	return data, nil
}

// ObserveDecode records one whole update's decode wall time under the
// stream's lossy codec in fedsz_decode_seconds, the histogram the
// whole-stream decoder feeds, so a section-routed ingest reports the same
// per-codec stage timer.
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
