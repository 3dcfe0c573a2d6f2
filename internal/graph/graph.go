// Package graph defines the in-memory graph representation shared by the
// HUS-Graph engine, its baselines, the generators and the codecs.
//
// Following the paper's model (§3.1), a graph G = (V, E) is a set of
// directed edges; for an edge e = (u, v), e is v's in-edge and u's
// out-edge. Undirected graphs are represented by storing the two opposite
// directed edges. Edges optionally carry a float32 weight (used by SSSP).
package graph

import (
	"fmt"
	"math/bits"
)

// VertexID identifies a vertex. 32 bits matches the out-of-core systems the
// paper compares against and keeps the on-disk edge record at M = 8 bytes
// (destination + weight) in block format.
type VertexID = uint32

// Edge is a directed, weighted edge.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an in-memory edge list plus vertex count. Vertex IDs are dense
// in [0, NumVertices).
type Graph struct {
	NumVertices int
	Edges       []Edge
}

// New returns an empty graph over n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{NumVertices: n}
}

// AddEdge appends a directed edge with weight 1.
func (g *Graph) AddEdge(src, dst VertexID) {
	g.AddWeightedEdge(src, dst, 1)
}

// AddWeightedEdge appends a directed edge.
func (g *Graph) AddWeightedEdge(src, dst VertexID, w float32) {
	g.Edges = append(g.Edges, Edge{Src: src, Dst: dst, Weight: w})
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Validate checks that all endpoints are within [0, NumVertices) and that
// weights are finite and non-negative.
func (g *Graph) Validate() error {
	n := VertexID(g.NumVertices)
	for i, e := range g.Edges {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
		if !(e.Weight >= 0) { // also catches NaN
			return fmt.Errorf("graph: edge %d (%d->%d) has invalid weight %v", i, e.Src, e.Dst, e.Weight)
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int {
	d := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		d[e.Src]++
	}
	return d
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int {
	d := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		d[e.Dst]++
	}
	return d
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{NumVertices: g.NumVertices, Edges: append([]Edge(nil), g.Edges...)}
}

// SortBySrc stably sorts edges by (src, dst) — the order out-blocks want.
func (g *Graph) SortBySrc() { SortEdgesBySrc(g.Edges) }

// SortByDst stably sorts edges by (dst, src) — the order in-blocks want.
func (g *Graph) SortByDst() { SortEdgesByDst(g.Edges) }

// SortEdgesBySrc stably sorts edges by (src, dst) in O(E) time: edges with
// equal endpoints keep their input order. Any uint32 id is accepted; the
// key range comes from the largest id present, not from a vertex count.
func SortEdgesBySrc(edges []Edge) { sortEdges(edges, true) }

// SortEdgesByDst stably sorts edges by (dst, src) in O(E) time, like
// SortEdgesBySrc.
func SortEdgesByDst(edges []Edge) { sortEdges(edges, false) }

// edgeKey returns e's source when src is set, else its destination.
func edgeKey(e Edge, src bool) uint32 {
	if src {
		return e.Src
	}
	return e.Dst
}

// sortEdges is an LSD radix sort by (major, minor) key, major being the
// source when bySrc is set: stable counting passes over the minor key,
// then over the major key, alternating between edges and one scratch
// buffer. An input already in order is left alone, and one already
// ordered by the minor key — a (src, dst)-sorted list sorted by
// destination — needs only the major passes.
func sortEdges(edges []Edge, bySrc bool) {
	if len(edges) < 2 {
		return
	}
	ordered, minorOrdered := true, true
	var maxMajor, maxMinor uint32
	prevMajor, prevMinor := edgeKey(edges[0], bySrc), edgeKey(edges[0], !bySrc)
	for _, e := range edges {
		major, minor := edgeKey(e, bySrc), edgeKey(e, !bySrc)
		if minor < prevMinor {
			minorOrdered = false
			if major == prevMajor {
				ordered = false
			}
		}
		if major < prevMajor {
			ordered = false
		}
		maxMajor, maxMinor = max(maxMajor, major), max(maxMinor, minor)
		prevMajor, prevMinor = major, minor
	}
	if ordered {
		return
	}
	from, to := edges, make([]Edge, len(edges))
	var count []int
	passes := func(maxKey uint32, keySrc bool) {
		width, n := digits(maxKey, len(edges))
		if cap(count) < 1<<width {
			count = make([]int, 1<<width)
		}
		for k := uint(0); k < n; k++ {
			countingPass(to, from, keySrc, k*width, width, count[:1<<width])
			from, to = to, from
		}
	}
	if !minorOrdered {
		passes(maxMinor, !bySrc)
	}
	passes(maxMajor, bySrc)
	if &from[0] != &edges[0] {
		copy(edges, from)
	}
}

// digits splits keys up to maxKey into the fewest radix digits whose
// count table stays within O(n) entries (at least 256), balancing the
// digit widths. Ids below about 2n — every dense graph — take one pass.
func digits(maxKey uint32, n int) (width, passes uint) {
	keyBits := uint(bits.Len32(maxKey))
	limit := max(uint(bits.Len(uint(n)))+1, 8)
	passes = (keyBits + limit - 1) / limit
	if passes == 0 {
		return 0, 0
	}
	return (keyBits + passes - 1) / passes, passes
}

// countingPass stably scatters from into to by the width-bit digit of
// each edge's key at shift; count has 1<<width entries.
func countingPass(to, from []Edge, keySrc bool, shift, width uint, count []int) {
	mask := uint32(len(count) - 1)
	clear(count)
	for _, e := range from {
		count[edgeKey(e, keySrc)>>shift&mask]++
	}
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for _, e := range from {
		d := edgeKey(e, keySrc) >> shift & mask
		to[count[d]] = e
		count[d]++
	}
}

// Dedup removes duplicate (src, dst) pairs, keeping the first occurrence's
// weight, and removes self-loops. It sorts the edge list by source.
func (g *Graph) Dedup() {
	g.SortBySrc()
	out := g.Edges[:0]
	var last Edge
	have := false
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			continue
		}
		if have && e.Src == last.Src && e.Dst == last.Dst {
			continue
		}
		out = append(out, e)
		last, have = e, true
	}
	g.Edges = out
}

// Symmetrize returns a new graph with, for every edge (u,v), both (u,v) and
// (v,u) present exactly once each (self-loops dropped). This is how the
// paper supports undirected graphs (§3.1): "adding two opposite edges for
// each pair of vertices". An edge of g keeps its own weight (the first
// occurrence's, if g repeats it); a mirrored edge (v,u) takes the weight
// of (u,v) only where g has no (v,u) of its own.
func (g *Graph) Symmetrize() *Graph {
	s := New(g.NumVertices)
	s.Edges = make([]Edge, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		if e.Src != e.Dst {
			s.Edges = append(s.Edges, e)
		}
	}
	// Every original precedes every mirror, so Dedup's first-occurrence
	// rule prefers them.
	originals := s.Edges
	for _, e := range originals {
		s.Edges = append(s.Edges, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	s.Dedup()
	return s
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	r := New(g.NumVertices)
	r.Edges = make([]Edge, len(g.Edges))
	for i, e := range g.Edges {
		r.Edges[i] = Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}
	}
	return r
}

// MaxOutDegree returns the largest out-degree, or 0 for an empty graph.
func (g *Graph) MaxOutDegree() int {
	m := 0
	for _, d := range g.OutDegrees() {
		if d > m {
			m = d
		}
	}
	return m
}
