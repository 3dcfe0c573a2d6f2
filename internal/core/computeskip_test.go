package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// skipTestGraph is an R-MAT graph over P=8 intervals whose upper-half
// sources carry zero weights: with scattered sources (wide varint gaps)
// those in-blocks RLE-compress best, so a weighted FormatMixed build holds
// RLE next to varint blocks.
func skipTestGraph() *graph.Graph {
	g := gen.RMAT(4096, 24000, gen.Graph500, rand.New(rand.NewSource(5)))
	gen.AssignUniformWeights(g, 1, 5, rand.New(rand.NewSource(6)))
	for k := range g.Edges {
		if g.Edges[k].Src >= 2048 {
			g.Edges[k].Weight = 0
		}
	}
	return g
}

// skipRun is everything of one run the compute skip must not change.
type skipRun struct {
	values []float64
	iters  int
	devs   []storage.Stats
	dec    blockstore.DecodeStats
	cache  blockstore.CacheStats
	unused int64
}

func runSkipCase(t *testing.T, g *graph.Graph, format blockstore.Format, weighted bool, k int, prog core.Program) skipRun {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), g,
		blockstore.Options{P: 8, Format: format, Weighted: weighted})
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.New(ds, shard.Config{Shards: k, Config: core.Config{
		// A budget holding every block: later iterations hit, and no
		// eviction races between the two prefetch workers' inserts.
		Model: core.ModelCOP, Threads: 2, PrefetchDepth: 2, CacheBudgetBytes: 4 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := skipRun{values: res.Values, iters: len(res.Iterations), cache: res.Cache, unused: res.PrefetchUnusedBytes}
	for _, dev := range co.ShardDevices() {
		run.devs = append(run.devs, dev.Stats())
	}
	run.dec = ds.DecodeStats()
	run.dec.Time = 0 // wall time, diagnostic only
	return run
}

// TestCOPComputeSkipInvisible checks the compute skip's invariants. A
// forced-COP traversal from one source starts with a single active source
// interval, so the first iterations leave most source intervals idle and
// their in-blocks are taken from the window but not scanned. Values must be
// bit-identical to the serial oracle, and every accounting figure — device
// I/O per shard, decode ops and bytes, cache hits and misses, unused
// read-ahead — must equal a full-scan run, at K ∈ {1,2,4} shards over raw,
// varint and mixed (varint + RLE) stores, weighted and unweighted.
func TestCOPComputeSkipInvisible(t *testing.T) {
	g := skipTestGraph()
	const src = 0
	bfs, sssp := algos.OracleBFS(g, src), algos.OracleSSSP(g, src)
	sawRLE := false
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatCompressed, blockstore.FormatMixed} {
		for _, weighted := range []bool{false, true} {
			prog, want := core.Program(algos.BFS{Source: src}), bfs
			if weighted {
				prog, want = algos.SSSP{Source: src}, sssp
			}
			for _, k := range []int{1, 2, 4} {
				tag := fmt.Sprintf("%v/weighted=%v/K=%d", format, weighted, k)
				got := runSkipCase(t, g, format, weighted, k, prog)
				restore := core.SetIdleSourceSkip(false)
				ref := runSkipCase(t, g, format, weighted, k, prog)
				restore()

				for v := range want {
					if got.values[v] != want[v] {
						t.Fatalf("%s: value[%d] = %v, oracle %v", tag, v, got.values[v], want[v])
					}
				}
				if got.iters != ref.iters {
					t.Fatalf("%s: %d iterations, full scan %d", tag, got.iters, ref.iters)
				}
				for s := range ref.devs {
					if got.devs[s] != ref.devs[s] {
						t.Fatalf("%s: shard %d device stats %+v, full scan %+v", tag, s, got.devs[s], ref.devs[s])
					}
				}
				if got.dec != ref.dec {
					t.Fatalf("%s: decode stats %+v, full scan %+v", tag, got.dec, ref.dec)
				}
				if got.cache != ref.cache || got.cache.Hits == 0 {
					t.Fatalf("%s: cache stats %+v, full scan %+v", tag, got.cache, ref.cache)
				}
				if got.unused != ref.unused {
					t.Fatalf("%s: unused read-ahead %d bytes, full scan %d", tag, got.unused, ref.unused)
				}
				if format == blockstore.FormatMixed && got.dec.RLEBytes > 0 {
					sawRLE = true
				}
			}
		}
	}
	if !sawRLE {
		t.Fatal("no mixed build decoded an RLE in-block; the RLE path went untested")
	}
}

// frameV1 wraps payload in the store's version-1 checksum frame ("HUSF",
// version, CRC32C of the payload, payload length), so a test can plant
// bytes that pass verification.
func frameV1(payload []byte) []byte {
	buf := append([]byte("HUSF"), 1)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// TestCOPOutOfRangeNeighborFailsRun pins the out-of-range failure: a
// CRC-valid in-block whose first record names a neighbor id ≥ NumVertices
// must fail the run with an ErrCorrupt-class error — in the pull kernel for
// a raw block, in the expander for a varint block — and never be skipped
// silently. The planted block (0,1) has source interval 0, which holds the
// BFS source and so is active in the first iteration.
func TestCOPOutOfRangeNeighborFailsRun(t *testing.T) {
	g := skipTestGraph()
	bad := uint32(g.NumVertices + 3)
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatCompressed} {
		st := storage.NewMemStore(storage.NewDevice(storage.RAM))
		ds, err := blockstore.BuildOpts(st, g, blockstore.Options{P: 8, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if ds.BlockEdgeCount[0][1] == 0 {
			t.Fatal("in-block (0,1) is empty; pick another block")
		}
		if format == blockstore.FormatRaw {
			blob, err := st.ReadAll("ib/0.1")
			if err != nil {
				t.Fatal(err)
			}
			payload := append([]byte(nil), blob[17:]...) // past the v1 header
			binary.LittleEndian.PutUint32(payload, bad)
			if err := st.Put("ib/0.1", frameV1(payload)); err != nil {
				t.Fatal(err)
			}
		} else {
			// One varint record (delta from -1) for the first destination
			// of interval 1; every later destination is empty.
			payload := binary.AppendUvarint(nil, uint64(bad)+1)
			idx := make([]byte, 0, 4*(ds.Layout.Size(1)+1))
			idx = binary.LittleEndian.AppendUint32(idx, 0)
			for k := 0; k < ds.Layout.Size(1); k++ {
				idx = binary.LittleEndian.AppendUint32(idx, uint32(len(payload)))
			}
			if err := st.Put("ib/0.1", frameV1(payload)); err != nil {
				t.Fatal(err)
			}
			if err := st.Put("ii/0.1", frameV1(idx)); err != nil {
				t.Fatal(err)
			}
		}
		_, err = core.New(ds, core.Config{Model: core.ModelCOP, Threads: 2, PrefetchDepth: 2}).Run(algos.BFS{Source: 0})
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%v: run over an in-block naming neighbor %d of %d vertices: err = %v, want ErrCorrupt", format, bad, g.NumVertices, err)
		}
	}
}
