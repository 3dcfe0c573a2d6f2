package blockstore

import (
	"encoding/binary"
	"errors"
	"testing"

	"husgraph/internal/storage"
)

// plantInBlock overwrites in-block (0,1) of ds with one section for the
// first destination of interval 1 holding payload (a section encoded with
// codec c), every later destination empty, framed so the CRC verifies.
func plantInBlock(t *testing.T, st storage.Store, ds *DualStore, payload []byte, c Codec) {
	t.Helper()
	idx := make([]uint32, ds.Layout.Size(1)+1)
	for k := 1; k < len(idx); k++ {
		idx[k] = uint32(len(payload))
	}
	frame := func(b []byte, c Codec) []byte {
		if ds.Format == FormatMixed {
			return frameBlobV2(b, c)
		}
		return frameBlob(b)
	}
	if err := st.Put(inBlockName(0, 1), frame(payload, c)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(inIndexName(0, 1), frame(encodeIndex(idx), CodecNone)); err != nil {
		t.Fatal(err)
	}
	if ds.Format == FormatMixed {
		ds.InCodecs[0][1] = c
		ds.InIndexStoredBytes[0][1] = int64(len(idx) * IndexEntryBytes)
	}
}

// TestPackedLoadRejectsStraySource pins the expander-side half of the
// out-of-range contract: a CRC-valid coded in-block naming a source outside
// its source interval — past the last vertex, or merely in another interval
// — is ErrCorrupt at load time, wherever the stray record sits. Varint
// sections are checked at their ends only, which the decoder's gap bound
// makes sufficient; RLE sections record by record.
func TestPackedLoadRejectsStraySource(t *testing.T) {
	enc := func(c Codec, nbrs ...uint32) []byte {
		recs := make([]Rec, len(nbrs))
		for k, n := range nbrs {
			recs[k] = Rec{Nbr: n}
		}
		return encodeVertexRecsCodec(nil, recs, c, false, nil)
	}
	// Gaps 2, 8, 2^64-6 would wrap to ids 1, 9, 3 — back inside interval 0
	// after a stray middle record — were gaps not bounded.
	wrapped := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 2), 8), 1<<64-6)
	cases := []struct {
		name    string
		format  Format
		codec   Codec
		payload []byte
	}{
		{"varint/past-last-vertex", FormatCompressed, CodecVarint, enc(CodecVarint, 1, 40)},
		{"varint/other-interval", FormatCompressed, CodecVarint, enc(CodecVarint, 1, 7)},
		{"varint/wrapped-gap", FormatCompressed, CodecVarint, wrapped},
		{"rle/middle-record", FormatMixed, CodecRLE, enc(CodecRLE, 1, 7, 3)},
	}
	for _, tc := range cases {
		st := memStore()
		ds, err := BuildOpts(st, paperGraph(), Options{P: 2, Format: tc.format})
		if err != nil {
			t.Fatal(err)
		}
		sc := new(Scratch)
		plantInBlock(t, st, ds, enc(tc.codec, 1, 3), tc.codec)
		if _, _, err := ds.LoadInBlockPackedScratch(0, 1, sc); err != nil {
			t.Fatalf("%s: in-interval control block rejected: %v", tc.name, err)
		}
		plantInBlock(t, st, ds, tc.payload, tc.codec)
		if _, _, err := ds.LoadInBlockPackedScratch(0, 1, sc); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: stray source loaded with err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
