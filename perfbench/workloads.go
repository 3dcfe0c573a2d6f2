package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/experiments"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// algorithm names the program a workload runs.
type algorithm int

const (
	algoPageRank algorithm = iota
	algoSSSP
	algoWCC
)

// spec describes one workload: its generated input, store layout, device
// profile and engine configuration. Every field is fixed per workload; only
// the seed varies between runs.
type spec struct {
	name      string
	algo      algorithm
	vertices  int
	edges     int
	symmetric bool
	weighted  bool
	format    blockstore.Format
	profile   storage.Profile
	onDisk    bool // storage.FileStore under the work directory; else MemStore
	shards    int  // > 1 runs through shard.Coordinator
	cfg       core.Config
	sources   int // SSSP queries per run phase
	minDegree int // SSSP sources have at least this out-degree
}

// Store layout shared by all workloads: the experiments' default interval
// count, which every shard count used here divides.
const intervals = 8

// pageRankMatch is the largest per-vertex difference from the serial
// oracle accepted for PageRank (the engine's own oracle tests use it).
const pageRankMatch = 1e-8

// specs returns the workloads by name.
func specs() map[string]spec {
	return map[string]spec{
		"pagerank-compressed": {
			name: "pagerank-compressed", algo: algoPageRank,
			vertices: 65536, edges: 1100000,
			format: blockstore.FormatMixed, profile: storage.HDD,
			cfg: core.Config{
				Threads: 2, SemiExternal: true, PrefetchDepth: 2,
				Tolerance: 1e-10, MaxIters: 5000,
				// Well below the decoded in-column working set (~10 MB),
				// so every iteration evicts.
				CacheBudgetBytes: 2 << 20,
			},
		},
		"sssp-multisource": {
			name: "sssp-multisource", algo: algoSSSP,
			vertices: 16384, edges: 275000, weighted: true,
			format: blockstore.FormatRaw, profile: storage.HDD, shards: 2,
			cfg:     core.Config{Threads: 1, CacheBudgetBytes: experiments.BenchCacheBudget},
			sources: 24, minDegree: 8,
		},
		"wcc-file-ckpt": {
			name: "wcc-file-ckpt", algo: algoWCC,
			vertices: 131072, edges: 2200000, symmetric: true,
			format: blockstore.FormatRaw, profile: storage.SSD, onDisk: true,
			cfg: core.Config{Threads: 2, PrefetchDepth: 2, CheckpointEvery: 10},
		},
	}
}

// dataset is the workload's generated input description.
func (s spec) dataset(seed int64) gen.Dataset {
	return gen.Dataset{Name: s.name, Kind: "web", Vertices: s.vertices, TargetEdges: s.edges, Seed: seed}
}

// query is one program the run phase executes, with the oracle answer it
// must reproduce (exactly when tol is 0).
type query struct {
	name string
	prog func() core.Program
	want []float64
	tol  float64
}

// matches reports whether got equals the oracle answer within q.tol.
func (q query) matches(got []float64) bool {
	if len(got) != len(q.want) {
		return false
	}
	for i, w := range q.want {
		g := got[i]
		if q.tol == 0 {
			if math.Float64bits(g) != math.Float64bits(w) {
				return false
			}
		} else if !(math.Abs(g-w) <= q.tol) { // NaN never matches
			return false
		}
	}
	return true
}

// queries builds the run phase's programs and computes their serial oracle
// answers on the original (unsymmetrized) graph.
func (s spec) queries(g *graph.Graph, seed int64) ([]query, error) {
	switch s.algo {
	case algoPageRank:
		return []query{{
			name: "PageRank",
			prog: func() core.Program { return &algos.PageRank{} },
			want: algos.OraclePageRank(g, s.cfg.Tolerance, s.cfg.MaxIters),
			tol:  pageRankMatch,
		}}, nil
	case algoWCC:
		return []query{{
			name: "WCC",
			prog: func() core.Program { return algos.WCC{} },
			want: algos.OracleWCC(g),
		}}, nil
	case algoSSSP:
		reg, err := experiments.AlgoByName("SSSP-Delta")
		if err != nil {
			return nil, err
		}
		proto, ok := reg.New(g).(algos.DeltaSSSP)
		if !ok {
			return nil, fmt.Errorf("registered SSSP-Delta is %T, want algos.DeltaSSSP", reg.New(g))
		}
		srcs, err := pickSources(g, s.sources, s.minDegree, seed)
		if err != nil {
			return nil, err
		}
		qs := make([]query, len(srcs))
		for i, src := range srcs {
			p := proto
			p.Source = src
			qs[i] = query{
				name: fmt.Sprintf("SSSP-Delta(%d)", src),
				prog: func() core.Program { return p },
				want: algos.OracleSSSP(g, src),
			}
		}
		return qs, nil
	}
	return nil, fmt.Errorf("unknown algorithm %d", s.algo)
}

// pickSources draws n distinct vertices of out-degree >= minDeg, seeded.
func pickSources(g *graph.Graph, n, minDeg int, seed int64) ([]graph.VertexID, error) {
	var cands []graph.VertexID
	for v, d := range g.OutDegrees() {
		if d >= minDeg {
			cands = append(cands, graph.VertexID(v))
		}
	}
	if len(cands) < n {
		return nil, fmt.Errorf("only %d vertices have out-degree >= %d, need %d", len(cands), minDeg, n)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	return cands[:n], nil
}

// runner is what the run phase drives: a core.Engine or a shard.Coordinator.
type runner interface {
	Run(core.Program) (*core.Result, error)
}

// newRunner builds a ready engine (or K-shard coordinator) over ds. devs are
// the devices the engines charge: the store's device unsharded, one
// accounting device per shard otherwise.
func (s spec) newRunner(ds *blockstore.DualStore, onIter func(core.IterStats)) (runner, []*storage.Device, error) {
	cfg := s.cfg
	cfg.OnIteration = onIter
	if s.shards > 1 {
		co, err := shard.New(ds, shard.Config{Config: cfg, Shards: s.shards})
		if err != nil {
			return nil, nil, fmt.Errorf("shard.New: %w", err)
		}
		return co, co.ShardDevices(), nil
	}
	return core.New(ds, cfg), []*storage.Device{ds.Device()}, nil
}

// setupTimes is one set-up's phase timing.
type setupTimes struct {
	symmetrize, build, newRunner time.Duration
}

func (t setupTimes) total() time.Duration { return t.symmetrize + t.build + t.newRunner }

// built is a set-up's product: the store the run phase reads.
type built struct {
	ds      *blockstore.DualStore
	traced  *tracedStore // nil in untraced runs
	dir     string       // FileStore directory, removed by close
	storeMB float64
	times   setupTimes
}

func (b *built) close() {
	if b != nil && b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// setup turns the generated edge list into a ready engine: symmetrize when
// the algorithm needs it, build the dual-block store, construct the engine.
// tr, when non-nil, wraps the store for tracing and records phase spans.
func (s spec) setup(g *graph.Graph, workDir string, tr *tracer) (*built, error) {
	b := &built{}
	root := tr.id()
	t0 := time.Now()
	if s.symmetric {
		g = g.Symmetrize()
	}
	t1 := time.Now()
	tr.add(tr.id(), root, "graph.symmetrize", t0, t1)
	b.times.symmetrize = t1.Sub(t0)

	dev := storage.NewDevice(s.profile)
	var base storage.Store
	if s.onDisk {
		dir, err := os.MkdirTemp(workDir, s.name+"-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		b.dir = dir
		fs, err := storage.NewFileStore(dev, dir)
		if err != nil {
			b.close()
			return nil, err
		}
		base = fs
	} else {
		base = storage.NewMemStore(dev)
	}
	store := base
	if tr != nil {
		b.traced = &tracedStore{inner: base, tr: tr}
		store = b.traced
	}
	ds, err := blockstore.BuildOpts(store, g, blockstore.Options{P: intervals, Format: s.format, Weighted: s.weighted})
	t2 := time.Now()
	if err != nil {
		b.close()
		return nil, fmt.Errorf("blockstore.BuildOpts: %w", err)
	}
	tr.add(tr.id(), root, "blockstore.build", t1, t2)
	b.times.build = t2.Sub(t1)
	b.ds = ds

	if _, _, err := s.newRunner(ds, nil); err != nil {
		b.close()
		return nil, err
	}
	t3 := time.Now()
	tr.add(tr.id(), root, "core.new", t2, t3)
	tr.add(root, 0, "setup", t0, t3)
	b.times.newRunner = t3.Sub(t2)

	var bytes int64
	for _, name := range base.List() {
		n, err := base.Size(name)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("store size: %w", err)
		}
		bytes += n
	}
	b.storeMB = float64(bytes) / 1e6
	return b, nil
}
