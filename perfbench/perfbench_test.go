package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
)

// spanTolerance is the share of run_s the iteration spans may leave
// uncovered: the time between the last OnIteration callback and Run's
// return (scheduler shutdown, result assembly).
const spanTolerance = 0.02

// smallSpec shrinks a workload to test size while keeping the property each
// workload is chosen for (the PageRank cache stays below its working set).
func smallSpec(t *testing.T, name string) spec {
	t.Helper()
	s, ok := specs()[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s.vertices, s.edges = 8192, 120000
	if s.sources > 0 {
		s.sources = 2
	}
	if name == "pagerank-compressed" {
		s.cfg.CacheBudgetBytes = 64 << 10
	}
	return s
}

// tracedUnit sets up a small workload and runs one traced run phase,
// returning it with the store device's read-byte delta over the phase.
func tracedUnit(t *testing.T, name string) (unitResult, int64) {
	t.Helper()
	s := smallSpec(t, name)
	g := s.dataset(7).Build()
	qs, err := s.queries(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	b, err := s.setup(g, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	bn := &bench{spec: s, queries: qs, b: b, tr: tr, log: io.Discard}
	dev := b.ds.Device()
	before := dev.Stats()
	u, err := bn.runUnit(true)
	if err != nil {
		t.Fatal(err)
	}
	return u, dev.Stats().Sub(before).ReadBytes()
}

func TestAccountingIdentities(t *testing.T) {
	for _, name := range []string{"pagerank-compressed", "sssp-multisource", "wcc-file-ckpt"} {
		t.Run(name, func(t *testing.T) {
			u, storeDevRead := tracedUnit(t, name)
			m := u.layers
			if u.attempted == 0 || u.failed != 0 {
				t.Fatalf("attempted %d, failed %d", u.attempted, u.failed)
			}
			if got := m["core.rop_iters"] + m["core.cop_iters"]; got != m["core.iterations"] {
				t.Errorf("rop+cop iterations = %v, want core.iterations %v", got, m["core.iterations"])
			}
			spans := m["core.rop_iter_s"] + m["core.cop_iter_s"]
			if math.Abs(u.runS-spans) > spanTolerance*u.runS {
				t.Errorf("iteration spans sum to %.6fs, run_s %.6fs (tolerance %v)", spans, u.runS, spanTolerance)
			}
			// The store's device is charged for every store read; at K=1
			// without semi-external residency the engine also charges it
			// for vertex-value transfers that never touch the store.
			wrapped := int64(math.Round(m["storage.read_mb"] * 1e6))
			if name == "wcc-file-ckpt" {
				if wrapped > storeDevRead {
					t.Errorf("store reads %d B exceed the device's %d B", wrapped, storeDevRead)
				}
			} else if wrapped != storeDevRead {
				t.Errorf("store reads %d B, device reads %d B", wrapped, storeDevRead)
			}
			for _, k := range busyLayers[name] {
				if m[k] <= 0 {
					t.Errorf("busy layer metric %s = %v, want > 0", k, m[k])
				}
			}
			for _, k := range idleLayers[name] {
				if m[k] != 0 {
					t.Errorf("idle layer metric %s = %v, want 0", k, m[k])
				}
			}
		})
	}
}

var (
	decodeLayer = []string{"blockstore.decode_ops", "blockstore.decode_s", "blockstore.decoded_mb", "blockstore.compressed_mb"}
	shardLayer  = []string{"shard.exchange_mb", "shard.exchange_msgs", "shard.exchange_modeled_s", "shard.merge_modeled_s", "shard.device_skew"}
	bucketLayer = []string{"bucket.buckets", "bucket.max_pending"}
	ckptLayer   = []string{"core.checkpoints", "core.checkpoint_s", "storage.write_calls", "storage.write_mb"}
	cacheLayer  = []string{"blockstore.cache_hits", "blockstore.cache_misses", "blockstore.cache_evictions"}
)

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// busyLayers and idleLayers are the per-workload expectations README.md
// states: each workload's busy layers read nonzero, its idle layers zero.
var busyLayers = map[string][]string{
	"pagerank-compressed": concat(decodeLayer, []string{"blockstore.cache_misses", "blockstore.cache_evictions", "core.cop_iters", "storage.seq_read_mb"}),
	"sssp-multisource":    concat(shardLayer, bucketLayer, []string{"blockstore.cache_hits", "core.rop_iters", "core.predicted_iters", "core.predict_err", "storage.rand_accesses"}),
	"wcc-file-ckpt":       concat(ckptLayer, []string{"core.rop_iters", "core.cop_iters", "core.predicted_iters", "storage.read_calls", "storage.rand_accesses"}),
}

var idleLayers = map[string][]string{
	"pagerank-compressed": concat(shardLayer, bucketLayer, ckptLayer, []string{"core.rop_iters", "core.predicted_iters"}),
	"sssp-multisource":    concat(decodeLayer, ckptLayer, []string{"blockstore.cache_evictions"}),
	"wcc-file-ckpt":       concat(decodeLayer, shardLayer, bucketLayer, cacheLayer),
}

// TestReportNamesMatchBenchmarkJSON keeps the emitted metric names and
// units in step with the repository's BENCHMARK.json.
func TestReportNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range specs() {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, specs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, specs %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), emitted %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	p := span{id: 1, start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}, {start: 50, end: 50}}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10..40 plus 90..100)", got)
	}
	self := selfTimes(append([]span{p}, span{id: 2, parent: 1, name: "c", start: 10, end: 30}))
	if want := 80e-9; math.Abs(self[""]-want) > 1e-15 {
		t.Fatalf("self time = %v, want %v", self[""], want)
	}
}

func TestQueryMatches(t *testing.T) {
	inf := math.Inf(1)
	exact := query{want: []float64{0, 1.5, inf}}
	if !exact.matches([]float64{0, 1.5, inf}) {
		t.Error("identical values rejected")
	}
	if exact.matches([]float64{0, math.Nextafter(1.5, 2), inf}) {
		t.Error("exact query accepted a one-ulp difference")
	}
	loose := query{want: []float64{0.25}, tol: 1e-8}
	if !loose.matches([]float64{0.25 + 5e-9}) {
		t.Error("difference within tolerance rejected")
	}
	if loose.matches([]float64{0.25 + 5e-8}) || loose.matches([]float64{math.NaN()}) {
		t.Error("difference beyond tolerance accepted")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestThreadBudget keeps engine threads × shards within the benchmark's
// GOMAXPROCS cap.
func TestThreadBudget(t *testing.T) {
	for name, s := range specs() {
		if threads := max(1, s.shards) * s.cfg.Threads; threads > maxProcs {
			t.Errorf("%s: %d engine threads exceed %d", name, threads, maxProcs)
		}
	}
}
