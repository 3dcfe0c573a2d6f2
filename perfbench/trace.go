package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans are
// counted as dropped. Aggregate counters never depend on kept spans.
const maxSpans = 200000

// span is one timed interval of the benchmark's own calls into a layer.
// Times are nanoseconds since the tracer started; parent 0 means root.
type span struct {
	id, parent int32
	name       string
	start, end int64
}

// tracer records spans in memory and writes them when the run ends. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int32
	current atomic.Int32 // parent for store-call spans: the open iteration

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span identifier before the span ends, so children can
// name their parent while it is still open.
func (t *tracer) id() int32 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span.
func (t *tracer) add(id, parent int32, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{id: id, parent: parent, name: name, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// setCurrent makes id the parent of subsequent store-call spans.
func (t *tracer) setCurrent(id int32) {
	if t != nil {
		t.current.Store(id)
	}
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its children's union covers.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.name] += float64(s.end-s.start-covered(s, children[s.id])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of p the union of kids covers.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and per-name self times as JSON in dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	rows := make([][5]any, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [5]any{s.id, s.parent, s.name, s.start, s.end}
	}
	doc := map[string]any{
		"workload": workload,
		"seed":     seed,
		"columns":  []string{"id", "parent", "name", "start_ns", "end_ns"},
		"spans":    rows,
		"dropped":  t.dropped,
		"self_s":   selfTimes(t.spans),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
