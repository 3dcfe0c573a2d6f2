package ioplan

import (
	"sync"
	"sync/atomic"
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/storage"
)

// Options configures a Scheduler.
type Options struct {
	// Depth is the prefetch worker count / read-ahead bound handed to
	// every pipeline the scheduler creates; <= 0 loads inline.
	Depth int
	// PipelineIters > 0 enables cross-iteration speculation and sets its
	// depth k: while iteration i's tail computes, the scheduler may read
	// provisional plans for iterations i+1..i+k, keeping up to k batches
	// parked at the barrier (the batch targeting i+1 is adopted by the
	// next Begin; deeper batches wait their turn).
	PipelineIters int
	// Degraded, when non-nil, is consulted by the gate before refilling
	// the speculation queue: while it reports true no new batches are
	// launched, so a degradation ladder can drain cross-iteration
	// speculation without tearing down the scheduler.
	Degraded func() bool
}

// ProvisionalFunc produces a provisional read plan for the iteration
// `depth` barriers ahead of the current window (depth 1 is the very next
// iteration). It is called on the scheduler's gate goroutine once the
// current iteration's own reads are all in flight — so implementations may
// consult state the current iteration is still building (e.g. the monotone
// next-frontier via its atomic probes, or the additive value-delta
// tracker). Returning nil or empty declines speculation at that depth and
// stops the chain: deeper plans are not requested this barrier.
type ProvisionalFunc func(depth int) []blockstore.BlockKey

// WindowStats summarizes one iteration window at Finish time.
type WindowStats struct {
	// UnusedBytes counts device bytes loaded by this window's pipelines
	// but never consumed: aborted read-ahead plus invalidated speculation.
	UnusedBytes int64
	// Stall is the wall time consumers spent blocked on reads that had
	// not completed when requested.
	Stall time.Duration
	// SpecIO is the device I/O the consumed speculative batch issued
	// (zero when no batch was adopted); SpecBatch reports one existed.
	SpecIO    storage.Stats
	SpecBatch bool
	// SpecDepth is the depth the adopted batch was speculated at: how many
	// barriers ahead of its issuing window this window was (0 when no
	// batch was adopted).
	SpecDepth int
}

// Scheduler owns the engine's iteration-spanning block I/O. One Scheduler
// lives for the whole run; each iteration opens a Window over its final
// read plan, consumes results through it, and Finishes it.
//
// Speculative reads are issued through per-batch forked DualStores whose
// I/O passes per-batch storage.CountingStore taps chained into one shared
// tap, so each batch's device charges are exact without serializing
// batches, and the shared tap still measures all speculation live: the
// engine subtracts the speculation issued during iteration i from i's
// device delta and adds the adopted batch's I/O to the iteration that
// consumes it — keeping per-iteration attribution honest across the
// barrier. Speculative pipelines run quiet (they neither count cache hits
// nor insert), and the Window replays the cache interaction at consume
// time, so cache statistics and contents evolve exactly as if the read had
// happened in the consuming iteration. Batches deeper than 1 defer keys
// that shallower batches (or the current window's own plan) will have
// inserted into the cache by their consume time, instead of re-reading
// them from the device (see blockstore.PrefetchOpts.Pending).
type Scheduler struct {
	ds    *blockstore.DualStore
	cache *blockstore.BlockCache
	opts  Options

	// tap is non-nil only when pipelining is enabled; every batch's
	// per-batch tap forwards to it.
	tap *storage.CountingStore

	// depth is the live prefetch read-ahead bound (initially opts.Depth)
	// and bypass the live cache-bypass switch; both are adjusted between
	// iterations by the degradation ladder.
	depth  atomic.Int32
	bypass atomic.Bool

	mu     sync.Mutex
	parked []*batch // FIFO: parked[0] targets the next Begin, each later batch one barrier deeper
}

// NewScheduler creates a scheduler over ds. Fork copies the retry policy in
// force now, so install it with SetRetryPolicy before calling. cache may be
// nil.
func NewScheduler(ds *blockstore.DualStore, cache *blockstore.BlockCache, opts Options) *Scheduler {
	s := &Scheduler{ds: ds, cache: cache, opts: opts}
	s.depth.Store(int32(opts.Depth))
	if opts.PipelineIters > 0 && opts.Depth > 0 {
		s.tap = storage.NewCountingStore(ds.Store())
	}
	return s
}

// SetDepth adjusts the prefetch read-ahead bound for windows opened from
// now on (in-flight windows keep theirs); <= 0 loads inline. The
// degradation ladder drops it to zero at LevelNoPrefetch and restores the
// configured depth on re-arm.
func (s *Scheduler) SetDepth(d int) {
	if d < 0 {
		d = 0
	}
	s.depth.Store(int32(d))
}

// Depth returns the live read-ahead bound.
func (s *Scheduler) Depth() int { return int(s.depth.Load()) }

// SetBypassCache toggles cache bypass for windows opened from now on:
// while set, main pipelines neither consult nor fill the block cache —
// LevelBypass's synchronous uncached read mode.
func (s *Scheduler) SetBypassCache(v bool) { s.bypass.Store(v) }

// SpecIO returns the cumulative device I/O issued by speculative reads
// since the scheduler was created (zero when pipelining is off). The
// engine snapshots it around iterations to subtract speculation from the
// issuing iteration's device delta.
func (s *Scheduler) SpecIO() storage.Stats {
	if s.tap == nil {
		return storage.Stats{}
	}
	return s.tap.Stats()
}

// batch is one speculative read pipeline spanning one or more iteration
// barriers. Its device I/O flows through its own tap, so b.io is exactly
// this batch's charges even while sibling batches read concurrently.
type batch struct {
	pf     *blockstore.Prefetcher
	keys   []blockstore.BlockKey
	keySet map[blockstore.BlockKey]struct{}
	depth  int // barriers ahead of the launching window (1 = next iteration)
	tap    *storage.CountingStore

	remaining  atomic.Int64
	retireOnce sync.Once
	retired    chan struct{}
	io         storage.Stats // valid once retired is closed
}

// noteConsumed records one key consumed; the last consumer retires the
// batch off its own hot path.
func (b *batch) noteConsumed() {
	if b.remaining.Add(-1) == 0 {
		go b.retire()
	}
}

// retire closes the pipeline and snapshots its device I/O, exactly once.
// Safe to call while consumers are still blocked in Take: Close fails
// their requests rather than stranding them.
func (b *batch) retire() {
	b.retireOnce.Do(func() {
		b.pf.Close()
		b.io = b.tap.Stats()
		close(b.retired)
	})
}

// launch starts one speculative batch over keys at the given depth.
// pending, when non-nil, marks keys expected to be cache-resident by the
// batch's consume time (inserted by the current window or a shallower
// parked batch); those are deferred instead of read.
func (s *Scheduler) launch(keys []blockstore.BlockKey, depth int, pending func(blockstore.BlockKey) bool) *batch {
	bTap := storage.NewCountingStore(s.tap)
	b := &batch{
		keys:    keys,
		keySet:  make(map[blockstore.BlockKey]struct{}, len(keys)),
		depth:   depth,
		tap:     bTap,
		retired: make(chan struct{}),
	}
	for _, k := range keys {
		b.keySet[k] = struct{}{}
	}
	b.remaining.Store(int64(len(keys)))
	pfDepth := s.Depth()
	if pfDepth <= 0 {
		pfDepth = s.opts.Depth // a batch must read ahead to be useful
	}
	b.pf = s.ds.Fork(bTap).NewPrefetcherOpts(keys, blockstore.PrefetchOpts{
		Depth:   pfDepth,
		Cache:   s.cache,
		Quiet:   true,
		Pending: pending,
	})
	return b
}

// Window is one iteration's view of the scheduler: the final read plan,
// the main pipeline reading it, and the adopted slice of the previous
// barrier's speculation.
type Window struct {
	sched *Scheduler
	plan  []blockstore.BlockKey

	main     *blockstore.Prefetcher
	adopted  *batch
	specKeys map[blockstore.BlockKey]struct{} // plan keys served by adopted

	cursor int // Next() position in plan (single consumer)

	quit     chan struct{}
	gateDone chan struct{}
	invDone  chan struct{}

	unused    atomic.Int64 // invalidated speculative bytes
	specStall atomic.Int64
}

// Begin opens the window for one iteration. plan is the final ordered read
// plan; provisional, when non-nil, produces provisional plans for the
// coming iterations' cross-barrier speculation. The head of the parked
// speculation queue — the batch launched for exactly this barrier — is
// reconciled now: keys also in plan are adopted (their results served from
// the speculative pipeline, cache attribution replayed at consume time),
// the rest are invalidated concurrently and counted as unused bytes.
// Deeper parked batches stay parked for the following Begins.
func (s *Scheduler) Begin(plan []blockstore.BlockKey, provisional ProvisionalFunc) *Window {
	w := &Window{
		sched:    s,
		plan:     plan,
		quit:     make(chan struct{}),
		gateDone: make(chan struct{}),
		invDone:  make(chan struct{}),
	}
	s.mu.Lock()
	var b *batch
	if len(s.parked) > 0 {
		b = s.parked[0]
		s.parked = s.parked[1:]
	}
	s.mu.Unlock()

	mainSched := plan
	if b != nil {
		w.adopted = b
		w.specKeys = make(map[blockstore.BlockKey]struct{}, len(b.keys))
		for _, k := range plan {
			if _, ok := b.keySet[k]; ok {
				w.specKeys[k] = struct{}{}
			}
		}
		invalid := make([]blockstore.BlockKey, 0, len(b.keys))
		for _, k := range b.keys {
			if _, ok := w.specKeys[k]; !ok {
				invalid = append(invalid, k)
			}
		}
		if len(w.specKeys) > 0 {
			mainSched = make([]blockstore.BlockKey, 0, len(plan)-len(w.specKeys))
			for _, k := range plan {
				if _, ok := w.specKeys[k]; !ok {
					mainSched = append(mainSched, k)
				}
			}
		}
		go w.invalidate(invalid)
	} else {
		close(w.invDone)
	}

	cache := s.cache
	if s.bypass.Load() {
		cache = nil
	}
	w.main = s.ds.NewPrefetcher(mainSched, s.Depth(), cache)

	if s.tap != nil && provisional != nil && s.Depth() > 0 && !s.degraded() {
		go w.gate(provisional)
	} else {
		close(w.gateDone)
	}
	return w
}

// degraded reports whether the ladder is currently vetoing speculation.
func (s *Scheduler) degraded() bool {
	return s.opts.Degraded != nil && s.opts.Degraded()
}

// invalidate drains the speculative results the final plan diverged from:
// loaded bytes are wasted speculation, and every consumed key moves the
// batch toward retirement. Bounded by len(invalid); Take can never hang
// because the batch's Close fails unclaimed and refills drained requests.
func (w *Window) invalidate(invalid []blockstore.BlockKey) {
	defer close(w.invDone)
	b := w.adopted
	for _, k := range invalid {
		res := b.pf.Take(k)
		if res.Err == nil {
			w.unused.Add(res.DataBytes())
		}
		res.Release()
		b.noteConsumed()
	}
}

// pendingOverlay snapshots the keys a batch launched now may assume will be
// cache-resident by its consume time: this window's own plan (its pipeline
// inserts as it loads, its adopted speculation replays inserts at consume)
// plus every batch already parked ahead in the queue (consumed — and
// replayed into the cache — strictly before the new batch's target
// iteration). Returns nil when there is no cache to chain through.
func (w *Window) pendingOverlay() func(blockstore.BlockKey) bool {
	s := w.sched
	if s.cache == nil {
		return nil
	}
	set := make(map[blockstore.BlockKey]struct{}, len(w.plan))
	for _, k := range w.plan {
		set[k] = struct{}{}
	}
	s.mu.Lock()
	for _, b := range s.parked {
		for k := range b.keySet {
			set[k] = struct{}{}
		}
	}
	s.mu.Unlock()
	return func(k blockstore.BlockKey) bool {
		_, ok := set[k]
		return ok
	}
}

// gate runs on its own goroutine and launches the coming barriers'
// speculation at the right moment: after this window's own reads are all
// in flight (never competing with them for device time) and after the
// previous batch has retired (the current iteration is done re-reading
// across the barrier). It then refills the parked queue up to depth k,
// asking the engine for one provisional plan per depth. Each batch's
// token-bounded pipeline keeps at most Depth of its reads in flight, so
// chained batches throttle themselves; a parked batch's remaining reads
// are only claimed as its consumer drains it after adoption. The chain
// stops at the first declined (empty) plan, keeping the queue contiguous:
// parked[0] always targets the very next Begin.
//
// quit (closed by Finish) only aborts a gate whose preconditions can no
// longer be met — an errored window that left reads unclaimed or
// speculative results unconsumed. A normally-finished window has already
// satisfied both waits, and then the gate completes its launch chain even
// if Finish is concurrently tearing the window down (Finish waits for it):
// fast iterations would otherwise lose the race to the barrier every time
// and speculation would silently never happen.
func (w *Window) gate(provisional ProvisionalFunc) {
	defer close(w.gateDone)
	s := w.sched
	select {
	case <-w.main.Drained():
	case <-w.quit:
		// Finishing. Normal completion implies every main read was
		// claimed; if Drained still hasn't fired the window was aborted.
		select {
		case <-w.main.Drained():
		default:
			return
		}
	}
	if w.adopted != nil {
		select {
		case <-w.adopted.retired:
		case <-w.quit:
			if w.adopted.remaining.Load() > 0 {
				return // aborted window: speculative results left unconsumed
			}
			// The last consumed key already triggered retirement; it
			// completes momentarily on its own goroutine.
			<-w.adopted.retired
		}
	}
	// The refill loop is bounded by the queue itself — each pass parks one
	// more batch, so at most PipelineIters launches happen — and it
	// deliberately does not watch quit: by this point both preconditions
	// held, so the window finished normally and its launch chain must
	// complete even while Finish tears the window down.
	for depth := s.parkedDepth(); depth <= s.opts.PipelineIters; depth = s.parkedDepth() {
		if s.degraded() {
			// The ladder stepped down while this window ran: stop
			// refilling so parked speculation drains.
			return
		}
		keys := provisional(depth)
		if len(keys) == 0 {
			return
		}
		b := s.launch(keys, depth, w.pendingOverlay())
		s.mu.Lock()
		s.parked = append(s.parked, b)
		s.mu.Unlock()
	}
}

// parkedDepth returns the depth the next launched batch would occupy: one
// past the end of the parked queue.
func (s *Scheduler) parkedDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parked) + 1
}

// Take returns the result for key, from the adopted speculative batch when
// it covers key, else from the main pipeline. Concurrent consumers follow
// the Prefetcher.Take window contract.
func (w *Window) Take(key blockstore.BlockKey) *blockstore.PrefetchResult {
	if w.specKeys != nil {
		if _, ok := w.specKeys[key]; ok {
			return w.takeSpec(key)
		}
	}
	return w.main.Take(key)
}

// Next returns the next result in plan order. Single consumer only.
func (w *Window) Next() *blockstore.PrefetchResult {
	if w.cursor >= len(w.plan) {
		return w.main.Next() // surfaces the past-schedule-end error
	}
	key := w.plan[w.cursor]
	w.cursor++
	return w.Take(key)
}

// takeSpec consumes one adopted speculative result and replays the cache
// interaction the quiet pipeline deferred: the hit/miss is counted — and a
// loaded block inserted — now, in the iteration consuming the block, not
// the iteration that issued the read. Deferred results (keys the batch
// expected a shallower pipeline to insert) are resolved here the same way
// an unpipelined iteration would: a cache hit when the prediction held, an
// inline counted load when it did not. This is what keeps per-iteration
// cache statistics identical with pipelining on and off.
func (w *Window) takeSpec(key blockstore.BlockKey) *blockstore.PrefetchResult {
	b := w.adopted
	t0 := time.Now()
	res := b.pf.Take(key)
	w.specStall.Add(int64(time.Since(t0)))
	b.noteConsumed()
	if res.Err != nil {
		return res
	}
	cache := w.sched.cache
	if res.Deferred {
		res.Release()
		if cache != nil {
			if blk, ok := cache.GetQuiet(key); ok {
				cache.NoteHit(key)
				return &blockstore.PrefetchResult{Key: key, Cached: true, Payload: blk.Payload, ByteIdx: blk.ByteIdx}
			}
		}
		// The prediction missed (evicted, or refused by admission): load
		// inline with full cache interaction — the device charge, the
		// counted miss and the insert all land in the consuming iteration,
		// exactly as an unpipelined run's miss would.
		t1 := time.Now()
		ip := w.sched.ds.NewPrefetcher([]blockstore.BlockKey{key}, 0, cache)
		r := ip.Next()
		ip.Close()
		w.specStall.Add(int64(time.Since(t1)))
		return r
	}
	if cache != nil {
		if res.Cached {
			cache.NoteHit(key)
		} else {
			cache.NoteMiss(key)
			if blk := res.CacheCopy(); cache.Put(key, blk) {
				res.AdoptCached(blk)
			}
		}
	}
	return res
}

// Finish closes the window: stops the gate, retires the adopted batch,
// waits for the invalidator, closes the main pipeline, and returns the
// window's I/O attribution. Deeper batches the gate parked stay parked for
// the following windows. Call exactly once per Begin, after the executor
// is done consuming (on success or error).
func (s *Scheduler) Finish(w *Window) WindowStats {
	var st WindowStats
	close(w.quit)
	<-w.gateDone
	if b := w.adopted; b != nil {
		b.retire()
		<-b.retired
		<-w.invDone
		st.SpecIO = b.io
		st.SpecBatch = true
		st.SpecDepth = b.depth
		st.UnusedBytes += b.pf.UnusedBytes()
	} else {
		<-w.invDone
	}
	w.main.Close()
	st.UnusedBytes += w.main.UnusedBytes() + w.unused.Load()
	st.Stall = w.main.StallTime() + time.Duration(w.specStall.Load())
	return st
}

// Shutdown retires every speculation batch parked at the barrier with no
// iteration left to adopt it (the run converged mid-chain). It returns the
// orphan batches' summed device I/O and loaded-but-unused bytes; both are
// zero when nothing was pending. Idempotent.
func (s *Scheduler) Shutdown() (storage.Stats, int64) {
	s.mu.Lock()
	orphans := s.parked
	s.parked = nil
	s.mu.Unlock()
	var io storage.Stats
	var unused int64
	for _, b := range orphans {
		b.retire()
		<-b.retired
		io = io.Add(b.io)
		unused += b.pf.UnusedBytes()
	}
	return io, unused
}
