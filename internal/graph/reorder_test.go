package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRelabel(t *testing.T) {
	g := New(3)
	g.AddWeightedEdge(0, 1, 2)
	g.AddWeightedEdge(1, 2, 3)
	r := Relabel(g, []VertexID{2, 0, 1})
	want := []Edge{{Src: 2, Dst: 0, Weight: 2}, {Src: 0, Dst: 1, Weight: 3}}
	if !reflect.DeepEqual(r.Edges, want) {
		t.Fatalf("Relabel edges = %v", r.Edges)
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	g := New(3)
	for name, perm := range map[string][]VertexID{
		"short":     {0, 1},
		"duplicate": {0, 0, 1},
		"range":     {0, 1, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Relabel(g, perm)
		}()
	}
}

func TestDegreeOrderPutsHubFirst(t *testing.T) {
	// Star: vertex 3 is the hub.
	g := New(5)
	for _, v := range []VertexID{0, 1, 2, 4} {
		g.AddEdge(3, v)
		g.AddEdge(v, 3)
	}
	perm := DegreeOrder(g)
	if perm[3] != 0 {
		t.Fatalf("hub got rank %d", perm[3])
	}
}

func TestBFSOrderNeighborsClose(t *testing.T) {
	// Path graph: BFS order from 0 is the identity; from the middle it
	// interleaves but every neighbor stays within distance 2.
	g := New(8)
	for i := 0; i+1 < 8; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1))
	}
	perm := BFSOrder(g, 0)
	for v := 0; v < 8; v++ {
		if perm[v] != VertexID(v) {
			t.Fatalf("BFS order from 0 on a path should be identity; perm[%d]=%d", v, perm[v])
		}
	}
	perm = BFSOrder(g, 4)
	r := Relabel(g, perm)
	for _, e := range r.Edges {
		d := int(e.Src) - int(e.Dst)
		if d < 0 {
			d = -d
		}
		if d > 2 {
			t.Fatalf("edge %d->%d distance %d after BFS order", e.Src, e.Dst, d)
		}
	}
}

func TestBFSOrderCoversUnreached(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1) // 2,3,4 disconnected
	perm := BFSOrder(g, 0)
	seen := map[VertexID]bool{}
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate rank %d", p)
		}
		seen[p] = true
	}
	if len(seen) != 5 {
		t.Fatalf("ranks = %v", perm)
	}
}

func TestInversePermutation(t *testing.T) {
	perm := []VertexID{2, 0, 1}
	inv := InversePermutation(perm)
	if !reflect.DeepEqual(inv, []VertexID{1, 2, 0}) {
		t.Fatalf("inverse = %v", inv)
	}
}

// Property: relabeling preserves degrees (as multisets through the
// permutation) and Relabel∘inverse is the identity.
func TestQuickRelabelRoundTrip(t *testing.T) {
	roundTrips := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := New(n)
		for k := 0; k < rng.Intn(120); k++ {
			g.AddWeightedEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), rng.Float32())
		}
		perm := rng.Perm(n)
		p := make([]VertexID, n)
		for i, v := range perm {
			p[i] = VertexID(v)
		}
		r := Relabel(g, p)
		back := Relabel(r, InversePermutation(p))
		if !reflect.DeepEqual(back.Edges, g.Edges) {
			t.Errorf("Relabel round trip broke for seed %d (%d vertices, %d edges)", seed, n, len(g.Edges))
			return false
		}
		return true
	}
	// An edgeless draw: Relabel once turned its nil Edges into an empty
	// non-nil slice.
	roundTrips(-7357756436213073871)
	if err := quick.Check(roundTrips, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeOrderImprovesCompressionProxy(t *testing.T) {
	// After hub ordering, total |src-dst| distance over hub edges should
	// not grow for a hub-heavy graph (hubs move adjacent to each other).
	g := New(100)
	// Two hubs interlinked with everything.
	for v := VertexID(2); v < 100; v++ {
		g.AddEdge(0, v)
		g.AddEdge(1, v)
		g.AddEdge(v, 0)
	}
	perm := DegreeOrder(g)
	if perm[0] > 1 || perm[1] > 1 {
		t.Fatalf("hubs ranked %d, %d", perm[0], perm[1])
	}
}
