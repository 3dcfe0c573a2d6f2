package blockstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"husgraph/internal/storage"
)

// Format selects the on-disk encoding of block edge records.
//
// Indices always hold *byte* offsets into the block blob (the stored
// payload), so selective loading works identically for every format; what
// changes is the bytes per record.
type Format int

const (
	// FormatRaw stores fixed 8-byte records (neighbor uint32 + weight
	// float32): cheapest to decode, supports direct slicing.
	FormatRaw Format = iota
	// FormatCompressed delta-encodes neighbor IDs as varints (records
	// within one vertex's range are sorted by neighbor, so deltas are
	// small) followed by the raw float32 weight. Typical social/web
	// blocks shrink to ~65–80% of raw size, trading decode CPU for I/O —
	// the direction several of the paper's §5 systems (NXgraph, the
	// WebGraph format) push further.
	FormatCompressed
	// FormatMixed picks a codec (none | varint | rle) *per block* at build
	// time, keeping whichever encoding is smallest and falling back to raw
	// sections when compression does not pay. Per-vertex sections stay
	// self-contained (delta chains and RLE runs restart at every section
	// boundary), so the byte-offset index doubles as the gap-index side
	// table that lets ROP read and decode only the touched ranges. Block
	// indices are delta-varint compressed the same way. Every blob is
	// written in a version-2 checksum frame carrying its codec tag; the
	// CRC32C covers the *compressed* bytes (see frame.go). This is
	// GraphMP's compressed-edge-block direction.
	FormatMixed
)

// String names the format for reports.
func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatCompressed:
		return "compressed"
	case FormatMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses "raw", "compressed" or "mixed".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "raw":
		return FormatRaw, nil
	case "compressed":
		return FormatCompressed, nil
	case "mixed":
		return FormatMixed, nil
	default:
		return FormatRaw, fmt.Errorf("blockstore: unknown format %q (want raw|compressed|mixed)", s)
	}
}

// Codec identifies the encoding of one block's (or index's) stored payload.
// FormatRaw and FormatCompressed stores use one codec uniformly; FormatMixed
// stores record a codec per block in the meta blob and in each blob's
// version-2 frame tag.
type Codec uint8

const (
	// CodecNone stores sections as packed fixed-size raw records.
	CodecNone Codec = iota
	// CodecVarint delta-gap varint encodes each section's sorted neighbor
	// IDs (FormatCompressed's section encoding).
	CodecVarint
	// CodecRLE byte-RLE encodes each section's packed raw records
	// (PackBits-style; see rle.go) — wins on the locality runs of web
	// graphs where consecutive records share high bytes.
	CodecRLE
	numCodecs
)

// String names the codec for reports and frame errors.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecVarint:
		return "varint"
	case CodecRLE:
		return "rle"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// formatCodec maps a uniform store format to its section codec. FormatMixed
// has no single answer — callers must consult the per-block codec grids.
func formatCodec(f Format) Codec {
	if f == FormatCompressed {
		return CodecVarint
	}
	return CodecNone
}

// encodeVertexRecs serializes one vertex's records (sorted by neighbor) in
// the given uniform-store format, appending to dst. Unweighted encodings
// drop the weight field entirely — the compactness real systems exploit for
// PageRank, BFS and WCC (§4.4 credits HUS-Graph's "more space-efficient"
// storage). FormatMixed stores encode through encodeVertexRecsCodec with an
// explicit per-block codec instead.
func encodeVertexRecs(dst []byte, recs []Rec, f Format, weighted bool) []byte {
	return encodeVertexRecsCodec(dst, recs, formatCodec(f), weighted, nil)
}

// encodeVertexRecsCodec serializes one vertex's records (sorted by
// neighbor) with the given codec, appending to dst. Every section is
// self-contained: the varint delta chain starts from -1 and RLE runs never
// cross a section boundary, so a byte-range read of any subset of sections
// decodes without context. rleScratch, when non-nil, is reused for the
// intermediate raw packing of CodecRLE sections.
func encodeVertexRecsCodec(dst []byte, recs []Rec, c Codec, weighted bool, rleScratch *[]byte) []byte {
	switch c {
	case CodecNone:
		var scratch [EdgeBytes]byte
		for _, r := range recs {
			binary.LittleEndian.PutUint32(scratch[0:], r.Nbr)
			if weighted {
				binary.LittleEndian.PutUint32(scratch[4:], math.Float32bits(r.Weight))
				dst = append(dst, scratch[:EdgeBytes]...)
			} else {
				dst = append(dst, scratch[:4]...)
			}
		}
		return dst
	case CodecVarint:
		prev := int64(-1)
		var scratch [4]byte
		for _, r := range recs {
			delta := int64(r.Nbr) - prev
			if delta <= 0 {
				panic(fmt.Sprintf("blockstore: records not strictly sorted by neighbor (%d after %d)", r.Nbr, prev))
			}
			dst = binary.AppendUvarint(dst, uint64(delta))
			if weighted {
				binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(r.Weight))
				dst = append(dst, scratch[:]...)
			}
			prev = int64(r.Nbr)
		}
		return dst
	case CodecRLE:
		var local []byte
		if rleScratch == nil {
			rleScratch = &local
		}
		raw := encodeVertexRecsCodec((*rleScratch)[:0], recs, CodecNone, weighted, nil)
		*rleScratch = raw
		return appendRLE(dst, raw)
	default:
		panic("blockstore: unknown codec")
	}
}

// decodeVertexRecsInto parses one vertex's self-contained record section in
// the given uniform-store format, appending to recs.
func decodeVertexRecsInto(recs []Rec, buf []byte, f Format, weighted bool) ([]Rec, error) {
	return decodeVertexRecsCodecInto(recs, buf, formatCodec(f), weighted, nil)
}

// decodeVertexRecsCodecInto parses one vertex's self-contained record
// section encoded with codec c, appending to recs. Unweighted records
// decode with Weight = 1. Malformed input yields storage.ErrCorrupt-class
// errors — never a panic or an out-of-bounds read — so corrupt-on-disk
// sections surface through the same fault taxonomy as a bad frame CRC.
// rleScratch, when non-nil, is reused for the expanded bytes of CodecRLE
// sections.
func decodeVertexRecsCodecInto(recs []Rec, buf []byte, c Codec, weighted bool, rleScratch *[]byte) ([]Rec, error) {
	switch c {
	case CodecNone:
		step := 4
		if weighted {
			step = EdgeBytes
		}
		if len(buf)%step != 0 {
			return nil, fmt.Errorf("blockstore: raw payload length %d not a multiple of %d: %w", len(buf), step, storage.ErrCorrupt)
		}
		for off := 0; off < len(buf); off += step {
			w := float32(1)
			if weighted {
				w = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4:]))
			}
			recs = append(recs, Rec{Nbr: binary.LittleEndian.Uint32(buf[off:]), Weight: w})
		}
		return recs, nil
	case CodecVarint:
		prev := int64(-1)
		off := 0
		for off < len(buf) {
			delta, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, fmt.Errorf("blockstore: corrupt varint at offset %d: %w", off, storage.ErrCorrupt)
			}
			off += n
			// A gap wider than the id space is corrupt; bounding it keeps
			// ids non-decreasing within a section.
			nbr := prev + int64(delta)
			if delta > math.MaxUint32 || nbr < 0 || nbr > math.MaxUint32 {
				return nil, fmt.Errorf("blockstore: neighbor gap %d after id %d out of range: %w", delta, prev, storage.ErrCorrupt)
			}
			w := float32(1)
			if weighted {
				if off+4 > len(buf) {
					return nil, fmt.Errorf("blockstore: truncated weight at offset %d: %w", off, storage.ErrCorrupt)
				}
				w = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
			}
			recs = append(recs, Rec{Nbr: uint32(nbr), Weight: w})
			prev = nbr
		}
		return recs, nil
	default: // CodecRLE
		if c != CodecRLE {
			return nil, fmt.Errorf("blockstore: unknown codec %d: %w", c, storage.ErrCorrupt)
		}
		var local []byte
		if rleScratch == nil {
			rleScratch = &local
		}
		raw, err := appendUnRLE((*rleScratch)[:0], buf)
		*rleScratch = raw
		if err != nil {
			return nil, err
		}
		return decodeVertexRecsCodecInto(recs, raw, CodecNone, weighted, nil)
	}
}

// appendPackedRecs expands one vertex's record section encoded with codec c
// into packed raw records (the CodecNone layout: uint32 neighbor, plus the
// float32 weight when weighted), appending to dst. It accepts exactly the
// sections decodeVertexRecsCodecInto accepts and yields the same records,
// with the same storage.ErrCorrupt-class errors on malformed input; RLE
// sections expand straight into dst with no intermediate buffer.
func appendPackedRecs(dst, buf []byte, c Codec, weighted bool) ([]byte, error) {
	step := RawRecordBytes(weighted)
	switch c {
	case CodecNone:
		if len(buf)%step != 0 {
			return nil, fmt.Errorf("blockstore: raw payload length %d not a multiple of %d: %w", len(buf), step, storage.ErrCorrupt)
		}
		return append(dst, buf...), nil
	case CodecVarint:
		prev := int64(-1)
		off := 0
		for off < len(buf) {
			// One- and two-byte gaps (the common cases) skip the general
			// decoder; they are exactly what binary.Uvarint would return.
			var delta uint64
			if b0 := buf[off]; b0 < 0x80 {
				delta = uint64(b0)
				off++
			} else if off+1 < len(buf) && buf[off+1] < 0x80 {
				delta = uint64(b0&0x7f) | uint64(buf[off+1])<<7
				off += 2
			} else {
				d, n := binary.Uvarint(buf[off:])
				if n <= 0 {
					return nil, fmt.Errorf("blockstore: corrupt varint at offset %d: %w", off, storage.ErrCorrupt)
				}
				delta = d
				off += n
			}
			// A gap wider than the id space is corrupt; bounding it keeps
			// ids non-decreasing within a section.
			nbr := prev + int64(delta)
			if delta > math.MaxUint32 || nbr < 0 || nbr > math.MaxUint32 {
				return nil, fmt.Errorf("blockstore: neighbor gap %d after id %d out of range: %w", delta, prev, storage.ErrCorrupt)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(nbr))
			if weighted {
				if off+4 > len(buf) {
					return nil, fmt.Errorf("blockstore: truncated weight at offset %d: %w", off, storage.ErrCorrupt)
				}
				dst = append(dst, buf[off:off+4]...)
				off += 4
			}
			prev = nbr
		}
		return dst, nil
	case CodecRLE:
		base := len(dst)
		dst, err := appendUnRLE(dst, buf)
		if err != nil {
			return nil, err
		}
		if n := len(dst) - base; n%step != 0 {
			return nil, fmt.Errorf("blockstore: raw payload length %d not a multiple of %d: %w", n, step, storage.ErrCorrupt)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("blockstore: unknown codec %d: %w", c, storage.ErrCorrupt)
	}
}

// RawRecordBytes returns the byte size of one FormatRaw record.
func RawRecordBytes(weighted bool) int {
	if weighted {
		return EdgeBytes
	}
	return 4
}

// RawRec decodes the FormatRaw record at byte offset off of a block
// payload. It is the zero-copy accessor the engine's raw fast paths use to
// iterate packed records in place.
func RawRec(payload []byte, off int, weighted bool) (nbr uint32, weight float32) {
	nbr = binary.LittleEndian.Uint32(payload[off:])
	if !weighted {
		return nbr, 1
	}
	return nbr, math.Float32frombits(binary.LittleEndian.Uint32(payload[off+4:]))
}
