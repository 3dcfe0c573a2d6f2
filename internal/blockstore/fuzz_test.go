package blockstore

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"husgraph/internal/storage"
)

// The decode paths face bytes that crossed a disk: any of them may be
// truncated, bit-flipped, or adversarial. The contract fuzzed here is the
// one the engine relies on — decoding never panics, never over-reads, and
// failures surface as storage.ErrCorrupt-class errors the retry machinery
// refuses to retry.

// corruptOrErrCorrupt fails the test when err is non-nil but not
// ErrCorrupt-class.
func wantCorruptClass(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("decode error %v is not storage.ErrCorrupt-class", err)
	}
}

func FuzzDecodeVarint(f *testing.F) {
	// Valid varint section encodings, weighted and not.
	recs := []Rec{{Nbr: 1, Weight: 2}, {Nbr: 7, Weight: 0.5}, {Nbr: 1000000, Weight: -1}}
	var rle []byte
	f.Add(encodeVertexRecsCodec(nil, recs, CodecVarint, true, &rle), true)
	f.Add(encodeVertexRecsCodec(nil, recs, CodecVarint, false, &rle), false)
	// A valid varint index stream.
	f.Add(encodeIndexCodec([]uint32{0, 8, 8, 24, 400}, CodecVarint), false)
	// Truncated and corrupted variants.
	full := encodeVertexRecsCodec(nil, recs, CodecVarint, true, &rle)
	f.Add(full[:len(full)-3], true)
	mangled := append([]byte(nil), full...)
	mangled[0] ^= 0xFF
	f.Add(mangled, true)
	// Overlong/overflowing varints.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, false)
	f.Add([]byte{0x80}, true) // varint cut mid-continuation
	// Truncated/corrupt checksum frames, decoded through unframeBlob.
	framed := frameBlobV2(full, CodecVarint)
	f.Add(framed[:len(framed)-2], true)
	flipped := append([]byte(nil), framed...)
	flipped[frameHeaderLenV2] ^= 0x01
	f.Add(flipped, true)

	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		var sc Scratch
		if recs, err := decodeVertexRecsCodecInto(nil, data, CodecVarint, weighted, &sc.rle); err == nil {
			// Whatever decoded must re-encode and decode to the same thing
			// (sections are canonical for sorted outputs; skip when the
			// fuzzer found an unsorted-but-decodable stream).
			sorted := true
			for i := 1; i < len(recs); i++ {
				if recs[i].Nbr <= recs[i-1].Nbr {
					sorted = false
					break
				}
			}
			if sorted && len(recs) > 0 {
				re := encodeVertexRecsCodec(nil, recs, CodecVarint, weighted, &sc.rle)
				again, err := decodeVertexRecsCodecInto(nil, re, CodecVarint, weighted, &sc.rle)
				if err != nil || len(again) != len(recs) {
					t.Fatalf("re-encode round trip broke: %v (%d vs %d recs)", err, len(again), len(recs))
				}
			}
		} else {
			wantCorruptClass(t, err)
		}
		// The same bytes as a varint index stream.
		if _, err := decodeIndexCodecInto(nil, data, CodecVarint); err != nil {
			wantCorruptClass(t, err)
		}
		// And as a framed blob: unframe must never panic and must reject
		// anything whose CRC does not match.
		if payload, codec, err := unframeBlob("fuzz", data); err == nil {
			if codec >= numCodecs {
				t.Fatalf("unframeBlob accepted codec %d", codec)
			}
			_ = payload
		} else {
			wantCorruptClass(t, err)
		}
	})
}

func FuzzDecodeRLE(f *testing.F) {
	// Valid RLE streams: runs, literals, boundaries at the group limits.
	for _, src := range [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0}, 300),
		append(bytes.Repeat([]byte{5}, 130), 1, 2, 3),
		bytes.Repeat([]byte{1, 2}, 100),
	} {
		f.Add(appendRLE(nil, src))
	}
	// A full RLE-coded weighted section.
	recs := []Rec{{Nbr: 2, Weight: 1}, {Nbr: 3, Weight: 1}, {Nbr: 9, Weight: 1}}
	var rle []byte
	f.Add(encodeVertexRecsCodec(nil, recs, CodecRLE, true, &rle))
	// Truncations and stray controls.
	enc := appendRLE(nil, bytes.Repeat([]byte{8}, 64))
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{0x7F})       // literal group header, no bytes
	f.Add([]byte{0xFF})       // max run, missing value byte
	f.Add([]byte{0x80, 0x00}) // minimal run of zeros

	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := appendUnRLE(nil, data); err == nil {
			// Expansion is bounded: each control byte yields at most
			// rleMaxRun bytes, so over-reads would show as absurd growth.
			if len(out) > len(data)*rleMaxRun {
				t.Fatalf("unRLE expanded %d bytes to %d (> %dx bound)", len(data), len(out), rleMaxRun)
			}
			// Canonical round trip: encode(decode(data)) must decode back
			// to the same bytes.
			again, err := appendUnRLE(nil, appendRLE(nil, out))
			if err != nil || !bytes.Equal(again, out) {
				t.Fatalf("RLE re-encode round trip broke: %v", err)
			}
		} else {
			wantCorruptClass(t, err)
		}
		// The same bytes as a full RLE section decode (expand + raw parse).
		var sc Scratch
		for _, weighted := range []bool{false, true} {
			if _, err := decodeVertexRecsCodecInto(nil, data, CodecRLE, weighted, &sc.rle); err != nil {
				wantCorruptClass(t, err)
			}
		}
	})
}

func FuzzExpandInBlock(f *testing.F) {
	recs := []Rec{{Nbr: 1, Weight: 2}, {Nbr: 7, Weight: 0.5}, {Nbr: 1000000, Weight: -1}}
	for c := CodecNone; c < numCodecs; c++ {
		for _, weighted := range []bool{false, true} {
			enc := encodeVertexRecsCodec(nil, recs, c, weighted, nil)
			f.Add(enc, uint8(c), weighted)
			f.Add(enc[:len(enc)-1], uint8(c), weighted)
		}
	}
	f.Add([]byte{0x80}, uint8(CodecVarint), false)
	f.Add([]byte{0x7F}, uint8(CodecRLE), true)
	f.Add([]byte{1, 2, 3}, uint8(numCodecs), false)

	f.Fuzz(func(t *testing.T, data []byte, codec uint8, weighted bool) {
		c := Codec(codec)
		want, wantErr := decodeVertexRecsCodecInto(nil, data, c, weighted, nil)
		// Expand after a prefix, as block expansion appends section after
		// section into one buffer.
		prefix := []byte{0xAA, 0xBB, 0xCC, 0xDD}
		got, err := appendPackedRecs(append([]byte(nil), prefix...), data, c, weighted)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("codec %v weighted=%v: expander err %v, decoder err %v", c, weighted, err, wantErr)
		}
		if err != nil {
			wantCorruptClass(t, err)
			return
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatal("expander overwrote the bytes it appends to")
		}
		packed := got[len(prefix):]
		step := RawRecordBytes(weighted)
		if len(packed) != len(want)*step {
			t.Fatalf("codec %v weighted=%v: %d packed bytes for %d records", c, weighted, len(packed), len(want))
		}
		for k, r := range want {
			if nbr, w := RawRec(packed, k*step, weighted); nbr != r.Nbr || math.Float32bits(w) != math.Float32bits(r.Weight) {
				t.Fatalf("codec %v weighted=%v record %d: packed (%d, %v), decoded %+v", c, weighted, k, nbr, w, r)
			}
		}
	})
}
