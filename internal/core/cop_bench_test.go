package core

import (
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// benchMinPlus is a weighted monotone pull program (SSSP's relaxation)
// whose Init is never used: the benchmark sets values and frontier itself.
type benchMinPlus struct{}

func (benchMinPlus) Name() string         { return "benchMinPlus" }
func (benchMinPlus) Kind() Kind           { return Monotone }
func (benchMinPlus) NeedsSymmetric() bool { return false }
func (benchMinPlus) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	return make([]float64, ctx.NumVertices), bitset.NewFrontier(ctx.NumVertices)
}
func (benchMinPlus) Message(_ graph.VertexID, srcVal float64, w float32) float64 {
	return srcVal + float64(w)
}
func (benchMinPlus) Combine(acc, msg float64) (float64, bool) {
	if msg < acc {
		return msg, true
	}
	return acc, false
}
func (benchMinPlus) Apply(_ graph.VertexID, prev, acc float64) (float64, bool) {
	return acc, acc != prev
}

// BenchmarkCOPKernel measures one COP iteration's pull kernel over a
// weighted raw store (16,384 vertices, ~200 K edges, P = 8) whose blocks
// all sit in the cache, so the figure is the column scan, not I/O: with ~6%
// of the vertices active at random (every source interval busy, so the
// activity test does the filtering) and with every vertex active.
func BenchmarkCOPKernel(b *testing.B) {
	const n = 16384
	g := gen.Web(n, 200000, gen.DefaultWeb, rand.New(rand.NewSource(1)))
	gen.AssignUniformWeights(g, 1, 5, rand.New(rand.NewSource(2)))
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g,
		blockstore.Options{P: 8, Weighted: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	init := make([]float64, n)
	for v := range init {
		init[v] = float64(rng.Intn(1000))
	}
	sparse, full := bitset.NewFrontier(n), bitset.FullFrontier(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.06 {
			sparse.Add(v)
		}
	}
	for _, c := range []struct {
		name     string
		frontier *bitset.Frontier
	}{{"active6pct", sparse}, {"full", full}} {
		b.Run(c.name, func(b *testing.B) {
			e := New(ds, Config{Model: ModelCOP, Threads: 1, SemiExternal: true, CacheBudgetBytes: 64 << 20})
			prog := benchMinPlus{}
			s, d := make([]float64, n), make([]float64, n)
			b.SetBytes(ds.TotalInEdgeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(s, init)
				step := e.BeginIter(prog, i, ModelCOP, c.frontier, bitset.NewFrontier(n))
				InitAccumulators(prog.Kind(), s, d)
				if err := step.Exec(s, d); err != nil {
					b.Fatal(err)
				}
				if _, err := step.End(); err != nil {
					b.Fatal(err)
				}
			}
			if math.IsNaN(s[0]) {
				b.Fatal("NaN value")
			}
		})
	}
}
