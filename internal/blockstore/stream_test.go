package blockstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// streamFrom serializes g and streaming-builds it.
func streamFrom(t *testing.T, g *graph.Graph, p int, format Format, spill int) (*DualStore, *storage.MemStore) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	st := memStore()
	ds, err := BuildStreaming(st, &buf, p, format, spill)
	if err != nil {
		t.Fatal(err)
	}
	return ds, st
}

// storesEquivalent asserts two DualStores hold the same decoded blocks and
// metadata.
func storesEquivalent(t *testing.T, a, b *DualStore) {
	t.Helper()
	if a.Layout != b.Layout || a.Format != b.Format {
		t.Fatalf("layout/format: %+v/%v vs %+v/%v", a.Layout, a.Format, b.Layout, b.Format)
	}
	if !reflect.DeepEqual(a.OutDegrees, b.OutDegrees) || !reflect.DeepEqual(a.InDegrees, b.InDegrees) {
		t.Fatal("degrees differ")
	}
	if !reflect.DeepEqual(a.BlockEdgeCount, b.BlockEdgeCount) {
		t.Fatal("block counts differ")
	}
	if !reflect.DeepEqual(a.OutBlockBytes, b.OutBlockBytes) || !reflect.DeepEqual(a.InBlockBytes, b.InBlockBytes) {
		t.Fatal("block byte sizes differ")
	}
	for i := 0; i < a.Layout.P; i++ {
		for j := 0; j < a.Layout.P; j++ {
			ao, err := a.LoadOutBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			bo, err := b.LoadOutBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ao, bo) {
				t.Fatalf("out-block (%d,%d) differs", i, j)
			}
			ai, err := a.LoadInBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			bi, err := b.LoadInBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ai, bi) {
				t.Fatalf("in-block (%d,%d) differs", i, j)
			}
		}
	}
}

// TestBuildStreamingMatchesInMemoryBuild requires byte-identical stores
// from both builders, weighted or not, on shuffled edge lists. Duplicates
// whose weights differ must keep their input order in every block, which
// only stable sorts give; they are raw-only, since the varint codec needs
// strictly increasing neighbours. The small spill budget splits buckets
// into several parts.
func TestBuildStreamingMatchesInMemoryBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shuffle := func(g *graph.Graph) {
		rng.Shuffle(len(g.Edges), func(a, b int) { g.Edges[a], g.Edges[b] = g.Edges[b], g.Edges[a] })
	}
	uniq := gen.RMAT(300, 2500, gen.Graph500, rng)
	gen.AssignUniformWeights(uniq, 1, 5, rng)
	dups := uniq.Clone()
	for k := 0; k < 200; k++ {
		e := dups.Edges[rng.Intn(len(uniq.Edges))]
		e.Weight += 10
		dups.Edges = append(dups.Edges, e)
	}
	shuffle(uniq)
	shuffle(dups)
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		formats []Format
	}{
		{"unique", uniq, []Format{FormatRaw, FormatCompressed, FormatMixed}},
		{"duplicates", dups, []Format{FormatRaw}},
	} {
		var bin bytes.Buffer
		if err := graph.WriteBinary(&bin, tc.g); err != nil {
			t.Fatal(err)
		}
		for _, format := range tc.formats {
			for _, weighted := range []bool{true, false} {
				opts := Options{P: 4, Format: format, Weighted: weighted}
				memSt, streamSt := memStore(), memStore()
				want, err := BuildOpts(memSt, tc.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildStreamingOpts(streamSt, bytes.NewReader(bin.Bytes()), opts, 256)
				if err != nil {
					t.Fatal(err)
				}
				storesEquivalent(t, want, got)
				if a, b := storeDigest(t, memSt), storeDigest(t, streamSt); a != b {
					t.Errorf("%s %v weighted=%v: in-memory store %s, streaming store %s", tc.name, format, weighted, a, b)
				}
			}
		}
	}
}

func TestBuildStreamingTinySpillBudget(t *testing.T) {
	// A 64-edge budget forces many spill flushes; result must be
	// identical.
	rng := rand.New(rand.NewSource(22))
	g := gen.RMAT(100, 900, gen.Graph500, rng)
	want, err := Build(memStore(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := streamFrom(t, g, 3, FormatRaw, 64)
	storesEquivalent(t, want, got)
}

func TestBuildStreamingCleansSpillBlobs(t *testing.T) {
	g := gen.Path(50)
	_, st := streamFrom(t, g, 2, FormatRaw, 16)
	for _, name := range st.List() {
		if strings.HasPrefix(name, "tmp/") {
			t.Fatalf("spill blob %s left behind", name)
		}
	}
}

func TestBuildStreamingOpenable(t *testing.T) {
	g := gen.Cycle(40)
	_, st := streamFrom(t, g, 4, FormatCompressed, 8)
	ds, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumEdges() != 40 || ds.Format != FormatCompressed {
		t.Fatalf("opened: edges=%d format=%v", ds.NumEdges(), ds.Format)
	}
}

func TestBuildStreamingRejectsGarbage(t *testing.T) {
	if _, err := BuildStreaming(memStore(), strings.NewReader("not a graph"), 2, FormatRaw, 0); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := BuildStreaming(memStore(), strings.NewReader(""), 2, FormatRaw, 0); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBuildStreamingRejectsOutOfRangeEdge(t *testing.T) {
	// Hand-craft a header claiming 2 vertices with an edge to vertex 9.
	g := graph.New(10)
	g.AddEdge(0, 9)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Patch numV down to 2 (offset 8, little-endian uint64).
	for k := 0; k < 8; k++ {
		b[8+k] = 0
	}
	b[8] = 2
	if _, err := BuildStreaming(memStore(), bytes.NewReader(b), 2, FormatRaw, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestBuildStreamingRejectsBadFormat(t *testing.T) {
	if _, err := BuildStreaming(memStore(), strings.NewReader(""), 2, Format(9), 0); err == nil {
		t.Fatal("bad format accepted")
	}
}
