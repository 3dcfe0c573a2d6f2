package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/ioplan"
	"husgraph/internal/storage"
)

// skipIdleSources enables runCOP's compute skip. Only tests clear it, to
// build the full-scan reference run the skip must be indistinguishable from.
var skipIdleSources = true

// runCOP executes one Column-oriented Pull iteration (paper Alg. 3) over
// the engine's owned columns.
//
// For every owned interval i, the column of in-blocks (0, i)..(P-1, i) is
// streamed sequentially; within each in-block, destination vertices are
// partitioned across workers (each owns its destinations, so there are no
// write conflicts, §3.5) and pull messages from their active in-neighbors.
// After a column completes, S_i ← D_i (Alg. 3 line 20), so later columns
// pull already-updated values: monotone programs converge faster, additive
// programs become a Gauss–Seidel sweep (same fixed point). Incremental
// programs defer synchronization to iteration end — Step.FinalizeOwned
// consumes the deferred deltas (a delta must be consumed exactly once).
// The caller initializes D (InitAccumulators).
//
// idle marks the source intervals with no active vertex (idleSources): the
// sources of in-block(j, i) all lie in interval j, so an idle j contributes
// no message to any column. Such blocks are still taken from the window and
// released — read plan, device charges, cache and decode accounting are
// those of a full scan — but not scanned (the compute skip). Only the
// COPBlockSkip ablation drops their reads as well.
//
// Returns the largest per-vertex value change (non-Monotone only).
func (e *Engine) runCOP(prog Program, s, d []float64, frontier, next *bitset.Frontier, win *ioplan.Window, idle []bool) (float64, error) {
	l := e.ds.Layout
	dev := e.ds.Device()
	nv := int64(blockstore.VertexValueBytes)
	words := frontier.Bitmap().Words()
	step := uint32(blockstore.RawRecordBytes(e.ds.Weighted))
	weighted := e.ds.Weighted

	// The column traversal order was handed to the scheduler as this
	// window's plan (ioplan.COPKeysFor with the same idle mask under
	// COPBlockSkip): while this goroutine computes on in-block(j,i), the
	// scheduler's workers read, verify and expand the next blocks into the
	// packed raw layout (or serve them from the cache, or from the previous
	// barrier's adopted speculation). Every planned key is consumed by
	// exactly one Next call.
	var maxDelta float64
	for _, i := range e.owned { // column i updates interval i
		lo, hi := l.Bounds(i)
		if !e.cfg.SemiExternal {
			dev.ReadSeq(int64(l.Size(i)) * nv) // load D_i (Alg. 3 line 1)
		}

		for j := 0; j < l.P; j++ { // stream in-blocks top to bottom
			if idle[j] && e.cfg.COPBlockSkip {
				continue // block-level selective scheduling (ablation)
			}
			if !e.cfg.SemiExternal {
				dev.ReadSeq(int64(l.Size(j)) * nv) // load S_j (Alg. 3 line 3)
			}
			res := win.Next()
			if res.Err != nil {
				return 0, res.Err
			}
			payload, byteIdx := res.Payload, res.ByteIdx
			if len(payload) == 0 || (idle[j] && skipIdleSources) {
				res.Release()
				continue
			}
			jlo, jhi := l.Bounds(j)
			base, span := uint32(jlo), uint32(jhi-jlo)
			var stray atomic.Int64 // first source outside interval j, +1
			parallelWeightedChunks(byteIdx, e.cfg.Threads, func(cl, ch int) {
				for local := cl; local < ch; local++ {
					lo8, hi8 := byteIdx[local], byteIdx[local+1]
					if lo8 == hi8 {
						continue
					}
					acc := d[lo+local]
					dirty := false
					for off := lo8; off < hi8; off += step {
						nbr := binary.LittleEndian.Uint32(payload[off:])
						if nbr-base >= span {
							stray.CompareAndSwap(0, int64(nbr)+1)
							return
						}
						if words[nbr/64]&(1<<(nbr%64)) == 0 {
							continue // IsActive check (Alg. 3 line 11)
						}
						w := float32(1)
						if weighted {
							w = math.Float32frombits(binary.LittleEndian.Uint32(payload[off+4:]))
						}
						msg := prog.Message(nbr, s[nbr], w)
						if a, changed := prog.Combine(acc, msg); changed {
							acc = a
							dirty = true
						}
					}
					if dirty {
						d[lo+local] = acc
					}
				}
			})
			res.Release()
			if v := stray.Load(); v != 0 {
				return 0, fmt.Errorf("core: in-block (%d,%d): neighbor %d outside source interval [%d,%d): %w", j, i, v-1, jlo, jhi, storage.ErrCorrupt)
			}
		}

		// Column finalization: activate changed vertices, synchronize
		// S_i ← D_i (Alg. 3 line 20). Incremental programs defer both to
		// iteration end.
		switch prog.Kind() {
		case Monotone:
			for v := lo; v < hi; v++ {
				if d[v] != s[v] {
					next.Add(v)
					s[v] = d[v]
				}
			}
		case Additive:
			var sumD, maxD float64
			var activated int64
			for v := lo; v < hi; v++ {
				newVal, activate := prog.Apply(graph.VertexID(v), s[v], d[v])
				delta := math.Abs(newVal - s[v])
				sumD += delta
				if delta > maxD {
					maxD = delta
				}
				s[v] = newVal
				if activate {
					next.Add(v)
					activated++
				}
			}
			if maxD > maxDelta {
				maxDelta = maxD
			}
			if e.vd != nil {
				// Publish this interval's deltas while later columns still
				// stream: the speculation gate predicts the next frontier
				// from them (valuedelta.go).
				e.vd.noteInterval(i, sumD, maxD, activated)
			}
		case Incremental:
			// Values synchronized after all columns.
		}
		if !e.cfg.SemiExternal {
			dev.WriteSeq(int64(l.Size(i)) * nv) // write back D_i
		}
	}
	return maxDelta, nil
}
