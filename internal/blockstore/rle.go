package blockstore

import (
	"fmt"
	"slices"

	"husgraph/internal/storage"
)

// Byte-granular run-length encoding (PackBits-style) used by CodecRLE.
//
// The stream is a sequence of (control byte, data) groups:
//
//	control c in [0,127]   -> literal group: the next c+1 bytes are copied
//	                          through verbatim.
//	control c in [128,255] -> run group: the next single byte repeats
//	                          c-125 times (runs of length 3..130).
//
// Runs shorter than 3 bytes never pay for their control byte, so they are
// folded into literal groups; the encoder therefore never expands input by
// more than 1 byte per 128 (the literal control overhead). Web-graph
// adjacency blocks, whose packed raw records share high-order ID bytes
// across the locality runs GraphMP exploits, compress well under this even
// when the varint gap coding does not (e.g. weighted records, whose float32
// bytes break the varint stream but often repeat).
const (
	rleMaxLiteral = 128 // max bytes in one literal group
	rleMinRun     = 3   // shortest run worth a dedicated group
	rleMaxRun     = 130 // 255 - 125
)

// appendRLE appends the RLE encoding of src to dst and returns the extended
// slice.
func appendRLE(dst, src []byte) []byte {
	i := 0
	litStart := -1 // start of the pending literal group in src, -1 if none
	flushLit := func(end int) {
		for litStart >= 0 && litStart < end {
			n := end - litStart
			if n > rleMaxLiteral {
				n = rleMaxLiteral
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
		litStart = -1
	}
	for i < len(src) {
		// Measure the run starting at i.
		j := i + 1
		for j < len(src) && src[j] == src[i] && j-i < rleMaxRun {
			j++
		}
		if j-i >= rleMinRun {
			flushLit(i)
			dst = append(dst, byte(j-i+125), src[i])
			i = j
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i = j
	}
	flushLit(len(src))
	return dst
}

// appendUnRLE appends the decoded expansion of the RLE stream src to dst.
// Malformed streams (a group header promising more bytes than remain)
// return storage.ErrCorrupt-class errors; decode never reads past src or
// writes past the bytes it appends.
func appendUnRLE(dst, src []byte) ([]byte, error) {
	i := 0
	for i < len(src) {
		c := int(src[i])
		i++
		if c < rleMaxLiteral {
			n := c + 1
			if i+n > len(src) {
				return dst, fmt.Errorf("blockstore: rle literal group of %d bytes truncated at offset %d: %w", n, i-1, storage.ErrCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		if i >= len(src) {
			return dst, fmt.Errorf("blockstore: rle run group missing value byte at offset %d: %w", i-1, storage.ErrCorrupt)
		}
		n := c - 125
		v := src[i]
		i++
		start := len(dst)
		dst = slices.Grow(dst, n)[:start+n]
		for k := start; k < len(dst); k++ {
			dst[k] = v
		}
	}
	return dst, nil
}
