package graph

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSort is the comparison-sort reference the radix sort must match.
func refSort(edges []Edge, bySrc bool) []Edge {
	ref := append([]Edge(nil), edges...)
	slices.SortStableFunc(ref, func(a, b Edge) int {
		if bySrc {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
		}
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	return ref
}

// sameEdges compares weights by bits, so NaN weights and the order of
// duplicates that differ only in weight are both checked.
func sameEdges(a, b []Edge) bool {
	return slices.EqualFunc(a, b, func(x, y Edge) bool {
		return x.Src == y.Src && x.Dst == y.Dst && math.Float32bits(x.Weight) == math.Float32bits(y.Weight)
	})
}

// checkSorts sorts copies of edges both ways, through the Graph methods on
// a graph whose vertex count may be below the ids present, and compares
// each with the reference.
func checkSorts(t *testing.T, numVertices int, edges []Edge) {
	t.Helper()
	for _, bySrc := range []bool{true, false} {
		g := &Graph{NumVertices: numVertices, Edges: append([]Edge(nil), edges...)}
		if bySrc {
			g.SortBySrc()
		} else {
			g.SortByDst()
		}
		if want := refSort(edges, bySrc); !sameEdges(g.Edges, want) {
			t.Fatalf("bySrc=%v: got %v, want %v", bySrc, g.Edges, want)
		}
	}
}

// TestSortEdgesMatchesStableReference covers the radix sort's regimes:
// random order, duplicates with distinct weights (which only a stable
// sort keeps in input order), inputs already (src,dst)- or
// (dst,src)-sorted, and ids wide enough to need several digits.
func TestSortEdgesMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		name    string
		n, m    int
		idRange uint32
	}{
		{"small-dense", 50, 40, 8},
		{"dups", 200, 3000, 30},
		{"sparse-ids", 10, 500, 1 << 20},
		{"full-uint32", 10, 300, math.MaxUint32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := make([]Edge, tc.m)
			for k := range edges {
				edges[k] = Edge{
					Src:    uint32(rng.Int63n(int64(tc.idRange) + 1)),
					Dst:    uint32(rng.Int63n(int64(tc.idRange) + 1)),
					Weight: float32(k),
				}
			}
			checkSorts(t, tc.n, edges)
			checkSorts(t, tc.n, refSort(edges, true))
			checkSorts(t, tc.n, refSort(edges, false))
		})
	}
}

// FuzzSortEdges checks SortBySrc/SortByDst against slices.SortStableFunc
// on arbitrary edge lists: 12 bytes per edge (src, dst, weight bits,
// little-endian; a trailing partial record is ignored). Ids are any
// uint32, so most exceed the graph's vertex count.
func FuzzSortEdges(f *testing.F) {
	rec := func(src, dst uint32, w float32) []byte {
		var b [12]byte
		binary.LittleEndian.PutUint32(b[0:], src)
		binary.LittleEndian.PutUint32(b[4:], dst)
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(w))
		return b[:]
	}
	f.Add([]byte{}, uint8(4))
	var dups []byte
	for k := 0; k < 20; k++ {
		dups = append(dups, rec(uint32(k%3), uint32(2-k%3), float32(k))...)
	}
	f.Add(dups, uint8(3))
	f.Add(append(rec(math.MaxUint32, 0, 1), rec(0, math.MaxUint32, 2)...), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, numVertices uint8) {
		edges := make([]Edge, len(data)/12)
		for k := range edges {
			b := data[12*k:]
			edges[k] = Edge{
				Src:    binary.LittleEndian.Uint32(b[0:]),
				Dst:    binary.LittleEndian.Uint32(b[4:]),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
			}
		}
		checkSorts(t, int(numVertices), edges)
	})
}
