package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// minUnits is the fewest run phases measured per mode, even past the
	// time budget, so every median has samples.
	minUnits = 3
	// hardStop ends the measuring loop regardless of minUnits, keeping a
	// run well inside the harness's time limit.
	hardStop = 100 * time.Second
)

// endToEnd lists the untraced metrics with their units, in BENCHMARK.json
// order.
var endToEnd = []struct{ name, unit string }{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"device_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced metrics with their units, in BENCHMARK.json
// order.
var perLayer = []struct{ name, unit string }{
	{"gen.graph_s", "s"},
	{"graph.symmetrize_s", "s"},
	{"blockstore.build_s", "s"},
	{"blockstore.store_mb", "MB"},
	{"storage.read_calls", "count"},
	{"storage.read_s", "s"},
	{"storage.read_mb", "MB"},
	{"storage.write_calls", "count"},
	{"storage.write_s", "s"},
	{"storage.write_mb", "MB"},
	{"storage.seq_read_mb", "MB"},
	{"storage.rand_read_mb", "MB"},
	{"storage.rand_accesses", "count"},
	{"blockstore.decode_ops", "count"},
	{"blockstore.decode_s", "s"},
	{"blockstore.decoded_mb", "MB"},
	{"blockstore.compressed_mb", "MB"},
	{"blockstore.cache_hits", "count"},
	{"blockstore.cache_misses", "count"},
	{"blockstore.cache_hit_rate", "ratio"},
	{"blockstore.cache_evictions", "count"},
	{"blockstore.cache_admission_rejected", "count"},
	{"blockstore.cache_run_hits", "count"},
	{"blockstore.cache_promotions", "count"},
	{"ioplan.prefetch_stall_s", "s"},
	{"ioplan.unused_readahead_mb", "MB"},
	{"core.iterations", "count"},
	{"core.rop_iters", "count"},
	{"core.cop_iters", "count"},
	{"core.rop_iter_s", "s"},
	{"core.cop_iter_s", "s"},
	{"core.active_edges", "count"},
	{"core.predicted_iters", "count"},
	{"core.predict_err", "ratio"},
	{"core.checkpoints", "count"},
	{"core.checkpoint_s", "s"},
	{"bucket.buckets", "count"},
	{"bucket.max_pending", "count"},
	{"shard.exchange_mb", "MB"},
	{"shard.exchange_msgs", "count"},
	{"shard.exchange_modeled_s", "s"},
	{"shard.merge_modeled_s", "s"},
	{"shard.device_skew", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// iterRecorder is the engine's OnIteration hook. Each callback closes one
// iteration window opened at the previous callback (or at Run's start): it
// takes the wall time and the engine devices' deltas at that boundary.
type iterRecorder struct {
	tr    *tracer
	store *tracedStore // nil when untraced: no write charges to separate
	devs  []*storage.Device

	last     []storage.Stats
	lastT    time.Time
	lastW    time.Duration
	runID    int32
	windowID int32

	deviceCrit time.Duration    // Σ over windows of the largest device delta
	iterWall   [2]time.Duration // window wall time for ROP, COP iterations
	predicted  int
	predErr    []float64
}

func (r *iterRecorder) begin(t time.Time) {
	r.last = snapshot(r.devs)
	r.lastT = t
	r.lastW = r.store.writeSim()
	r.runID = r.tr.id()
	r.windowID = r.tr.id()
	r.tr.setCurrent(r.windowID)
}

// advance folds the devices' deltas since the last boundary into the
// critical path and returns their summed SimIO.
func (r *iterRecorder) advance() (total time.Duration) {
	var crit time.Duration
	for i, d := range r.devs {
		s := d.Stats()
		delta := s.SimIO - r.last[i].SimIO
		total += delta
		crit = max(crit, delta)
		r.last[i] = s
	}
	r.deviceCrit += crit
	return total
}

func (r *iterRecorder) onIteration(st core.IterStats) {
	now := time.Now()
	total := r.advance()
	w := r.store.writeSim()
	reads := total - (w - r.lastW) // checkpoint Puts are not predicted
	r.lastW = w
	model, name, pred := 1, "core.iter.cop", st.PredictedCOP
	if st.Model == core.ModelROP {
		model, name, pred = 0, "core.iter.rop", st.PredictedROP
	}
	r.iterWall[model] += now.Sub(r.lastT)
	if st.PredictedROP != 0 || st.PredictedCOP != 0 {
		r.predicted++
		if reads > 0 {
			r.predErr = append(r.predErr, math.Abs(float64(pred-reads))/float64(reads))
		}
	}
	r.tr.add(r.windowID, r.runID, name, r.lastT, now)
	r.windowID = r.tr.id()
	r.tr.setCurrent(r.windowID)
	r.lastT = now
}

// end closes the tail window (after the last iteration until Run returns)
// and the run span.
func (r *iterRecorder) end(parent int32, start, now time.Time) {
	r.advance()
	r.tr.add(r.windowID, r.runID, "core.run.tail", r.lastT, now)
	r.tr.add(r.runID, parent, "core.run", start, now)
	r.tr.setCurrent(0)
}

func snapshot(devs []*storage.Device) []storage.Stats {
	out := make([]storage.Stats, len(devs))
	for i, d := range devs {
		out[i] = d.Stats()
	}
	return out
}

// unitResult is one run phase: every query of the workload once, on a
// freshly constructed engine.
type unitResult struct {
	runS      float64
	deviceS   float64
	peakMB    float64
	attempted int
	failed    int
	layers    map[string]float64 // traced units only
}

// bench holds one process's workload state.
type bench struct {
	spec    spec
	queries []query
	b       *built
	tr      *tracer
	log     io.Writer
}

// runUnit executes one run phase. Each Run is timed on its own; the oracle
// comparison after it is outside the timed region. Every phase starts from
// a collected heap returned to the OS, with the kernel's resident
// high-water mark reset, so its peak RSS is its own. Query failures are
// counted in the result; the error reports only a broken measurement.
func (bn *bench) runUnit(traced bool) (unitResult, error) {
	u := unitResult{}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return u, err
	}
	var tr *tracer
	var ts *tracedStore
	if traced {
		tr, ts = bn.tr, bn.b.traced
		ts.on.Store(true)
		defer ts.on.Store(false)
	}
	rec := &iterRecorder{tr: tr, store: ts}
	r, devs, err := bn.spec.newRunner(bn.b.ds, rec.onIteration)
	if err != nil {
		fmt.Fprintf(bn.log, "%s: %v\n", bn.spec.name, err)
		u.attempted, u.failed = len(bn.queries), len(bn.queries)
		return u, nil
	}
	rec.devs = devs

	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	dev0 := snapshot(devs)
	dec0 := bn.b.ds.DecodeStats()
	sc0 := ts.counters()
	unitID := tr.id()
	unitStart := time.Now()
	var results []*core.Result
	for _, q := range bn.queries {
		start := time.Now()
		rec.begin(start)
		res, err := r.Run(q.prog())
		now := time.Now()
		rec.end(unitID, start, now)
		u.runS += now.Sub(start).Seconds()
		u.attempted++
		switch {
		case err != nil:
			u.failed++
			fmt.Fprintf(bn.log, "%s %s: %v\n", bn.spec.name, q.name, err)
		case !q.matches(res.Values):
			u.failed++
			fmt.Fprintf(bn.log, "%s %s: values differ from the serial oracle\n", bn.spec.name, q.name)
			results = append(results, res)
		default:
			results = append(results, res)
		}
	}
	tr.add(unitID, 0, "unit", unitStart, time.Now())
	u.deviceS = rec.deviceCrit.Seconds()
	peak, err := peakRSSMB()
	if err != nil {
		return u, err
	}
	u.peakMB = peak
	if !traced {
		return u, nil
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m := make(map[string]float64)
	sc := ts.counters().sub(sc0)
	m["storage.read_calls"] = float64(sc.readCalls)
	m["storage.read_s"] = float64(sc.readNs) / 1e9
	m["storage.read_mb"] = float64(sc.readBytes) / 1e6
	m["storage.write_calls"] = float64(sc.writeCalls)
	m["storage.write_s"] = float64(sc.writeNs) / 1e9
	m["storage.write_mb"] = float64(sc.writeBytes) / 1e6
	m["core.checkpoint_s"] = float64(sc.ckptNs) / 1e9

	dev1 := snapshot(devs)
	var tot storage.Stats
	var maxSim, sumSim time.Duration
	for i := range devs {
		d := dev1[i].Sub(dev0[i])
		tot = tot.Add(d)
		maxSim = max(maxSim, d.SimIO)
		sumSim += d.SimIO
	}
	m["storage.seq_read_mb"] = float64(tot.SeqReadBytes) / 1e6
	m["storage.rand_read_mb"] = float64(tot.RandReadBytes) / 1e6
	m["storage.rand_accesses"] = float64(tot.RandAccesses)
	if len(devs) > 1 && sumSim > 0 { // unsharded runs have no shard layer: 0
		m["shard.device_skew"] = float64(maxSim) * float64(len(devs)) / float64(sumSim)
	}

	dec := bn.b.ds.DecodeStats().Sub(dec0)
	m["blockstore.decode_ops"] = float64(dec.Ops)
	m["blockstore.decode_s"] = dec.Time.Seconds()
	m["blockstore.decoded_mb"] = float64(dec.DecodedBytes()) / 1e6
	m["blockstore.compressed_mb"] = float64(dec.CompressedBytes) / 1e6

	if n := len(results); n > 0 {
		// The engine's cache lives as long as the runner, so the last
		// result's cumulative counters cover the whole run phase.
		c := results[n-1].Cache
		m["blockstore.cache_hits"] = float64(c.Hits)
		m["blockstore.cache_misses"] = float64(c.Misses)
		m["blockstore.cache_hit_rate"] = c.HitRate()
		m["blockstore.cache_evictions"] = float64(c.Evictions)
		m["blockstore.cache_admission_rejected"] = float64(c.AdmissionRejected)
		m["blockstore.cache_run_hits"] = float64(c.RunHits)
		m["blockstore.cache_promotions"] = float64(c.Promotions)
	}

	var stall time.Duration
	var unused, active, exBytes, exMsgs int64
	var exTime, mergeTime time.Duration
	iters, rop, cop, ckpts, buckets, maxPending := 0, 0, 0, 0, 0, 0
	for _, res := range results {
		unused += res.PrefetchUnusedBytes
		ckpts += res.Recovery.CheckpointsWritten
		lastPri, inBucket := int64(0), false
		for _, it := range res.Iterations {
			iters++
			if it.Model == core.ModelROP {
				rop++
			} else {
				cop++
			}
			stall += it.PrefetchStall
			active += it.ActiveEdges
			exBytes += it.ExchangeBytes
			exMsgs += it.ExchangeMsgs
			exTime += it.ExchangeTime
			mergeTime += it.MergeTime
			if it.Bucketed {
				if !inBucket || it.BucketPri != lastPri {
					buckets++
				}
				lastPri, inBucket = it.BucketPri, true
				maxPending = max(maxPending, it.BucketPending)
			}
		}
	}
	m["ioplan.prefetch_stall_s"] = stall.Seconds()
	m["ioplan.unused_readahead_mb"] = float64(unused) / 1e6
	m["core.iterations"] = float64(iters)
	m["core.rop_iters"] = float64(rop)
	m["core.cop_iters"] = float64(cop)
	m["core.rop_iter_s"] = rec.iterWall[0].Seconds()
	m["core.cop_iter_s"] = rec.iterWall[1].Seconds()
	m["core.active_edges"] = float64(active)
	m["core.predicted_iters"] = float64(rec.predicted)
	m["core.predict_err"] = median(rec.predErr) // 0: nothing was predicted
	m["core.checkpoints"] = float64(ckpts)
	m["bucket.buckets"] = float64(buckets)
	m["bucket.max_pending"] = float64(maxPending)
	m["shard.exchange_mb"] = float64(exBytes) / 1e6
	m["shard.exchange_msgs"] = float64(exMsgs)
	m["shard.exchange_modeled_s"] = exTime.Seconds()
	m["shard.merge_modeled_s"] = mergeTime.Seconds()
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	u.layers = m
	return u, nil
}

// measure runs one workload end to end: generate, set up setupReps times,
// then run phases until budget has passed (alternating untraced and traced
// phases when traced is set), and assembles the report.
func measure(s spec, seed int64, budget time.Duration, traced bool, workDir string, log io.Writer) (*report, *tracer, error) {
	t0 := time.Now()
	g := s.dataset(seed).Build()
	genS := time.Since(t0).Seconds()
	qs, err := s.queries(g, seed)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	setups, b, err := setUp(s, g, workDir, tr)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	bn := &bench{spec: s, queries: qs, b: b, tr: tr, log: log}

	var plain, withTrace []unitResult
	// One warm-up phase lets the page cache and lazy runtime state settle;
	// its outputs are still checked.
	warm, err := bn.runUnit(false)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Attempted: warm.attempted, Failed: warm.failed}
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		enough := len(plain) >= minUnits && (!traced || len(withTrace) >= minUnits)
		if (enough && elapsed >= budget) || elapsed >= hardStop {
			break
		}
		u, err := bn.runUnit(traced && i%2 == 1)
		if err != nil {
			return nil, nil, err
		}
		rep.Attempted += u.attempted
		rep.Failed += u.failed
		if u.layers != nil {
			withTrace = append(withTrace, u)
		} else {
			plain = append(plain, u)
		}
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(log, "perfbench: %s run_s samples %.3f (traced %.3f)\n", s.name,
		pick(plain, func(u unitResult) float64 { return u.runS }),
		pick(withTrace, func(u unitResult) float64 { return u.runS }))

	values := make(map[string]float64)
	units := make(map[string]string)
	if !traced {
		values["run_s"] = median(pick(plain, func(u unitResult) float64 { return u.runS }))
		values["setup_s"] = median(mapTimes(setups, func(t setupTimes) time.Duration { return t.total() }))
		values["device_s"] = median(pick(plain, func(u unitResult) float64 { return u.deviceS }))
		values["peak_rss_mb"] = median(pick(plain, func(u unitResult) float64 { return u.peakMB }))
		for _, e := range endToEnd {
			units[e.name] = e.unit
		}
	} else {
		for _, l := range perLayer {
			units[l.name] = l.unit
			values[l.name] = median(pick(withTrace, func(u unitResult) float64 { return u.layers[l.name] }))
		}
		values["gen.graph_s"] = genS
		values["graph.symmetrize_s"] = median(mapTimes(setups, func(t setupTimes) time.Duration { return t.symmetrize }))
		values["blockstore.build_s"] = median(mapTimes(setups, func(t setupTimes) time.Duration { return t.build }))
		values["blockstore.store_mb"] = b.storeMB
		values["trace.overhead_s"] = median(pick(withTrace, func(u unitResult) float64 { return u.runS })) -
			median(pick(plain, func(u unitResult) float64 { return u.runS }))
	}
	rep.Metrics = make(map[string]metric, len(values))
	for name, v := range values {
		rep.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return rep, tr, nil
}

// setUp performs setupReps set-ups, keeping the last store.
func setUp(s spec, g *graph.Graph, workDir string, tr *tracer) ([]setupTimes, *built, error) {
	var times []setupTimes
	var b *built
	for i := 0; i < setupReps; i++ {
		b.close()
		// Start each set-up from a collected heap so earlier builds'
		// garbage does not land in this one's timing.
		runtime.GC()
		nb, err := s.setup(g, workDir, tr)
		if err != nil {
			return nil, nil, err
		}
		b = nb
		times = append(times, b.times)
	}
	return times, b, nil
}

func pick(us []unitResult, f func(unitResult) float64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f(u)
	}
	return out
}

func mapTimes(ts []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t).Seconds()
	}
	return out
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS sets the process's VmHWM to its current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
