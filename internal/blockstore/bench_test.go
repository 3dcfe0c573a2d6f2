package blockstore

import (
	"math/rand"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/storage"
)

func benchGraphStore(b *testing.B, format Format, weighted bool) *DualStore {
	b.Helper()
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	gen.AssignUniformWeights(g, 1, 5, rand.New(rand.NewSource(2)))
	ds, err := BuildOpts(storage.NewMemStore(storage.NewDevice(storage.RAM)), g,
		Options{P: 8, Format: format, Weighted: weighted})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkBuildRaw(b *testing.B) {
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildMixed(b *testing.B) {
	g := gen.RMAT(1<<14, 200000, gen.Graph500, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWithFormat(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, 8, FormatMixed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadInBlockPackedScratch(b *testing.B) {
	for _, format := range []Format{FormatRaw, FormatCompressed, FormatMixed} {
		b.Run(format.String(), func(b *testing.B) {
			ds := benchGraphStore(b, format, false)
			sc := &Scratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.LoadInBlockPackedScratch(i%8, (i/8)%8, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpandInBlock measures the expanders that turn a varint- or
// RLE-coded in-block into the packed raw layout COP iterates: one
// unweighted in-block's sections, expanded section by section into a
// reused buffer. SetBytes is the packed output, so MB/s reads as packed
// bytes produced per second.
func BenchmarkExpandInBlock(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, false)
	blk, err := ds.LoadInBlock(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []Codec{CodecVarint, CodecRLE} {
		var enc []byte
		bounds := []int{0}
		for k := 0; k+1 < len(blk.Index); k++ {
			enc = encodeVertexRecsCodec(enc, blk.EdgesOf(k), c, false, nil)
			bounds = append(bounds, len(enc))
		}
		b.Run(c.String(), func(b *testing.B) {
			var out []byte
			b.SetBytes(int64(len(blk.Recs)) * int64(RawRecordBytes(false)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = out[:0]
				for k := 1; k < len(bounds); k++ {
					if out, err = appendPackedRecs(out, enc[bounds[k-1]:bounds[k]], c, false); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkDecodeVertexRecs(b *testing.B) {
	recs := make([]Rec, 64)
	nbr := uint32(0)
	rng := rand.New(rand.NewSource(3))
	for i := range recs {
		nbr += 1 + uint32(rng.Intn(500))
		recs[i] = Rec{Nbr: nbr, Weight: 1}
	}
	for _, format := range []Format{FormatRaw, FormatCompressed} {
		b.Run(format.String(), func(b *testing.B) {
			buf := encodeVertexRecs(nil, recs, format, true)
			var out []Rec
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = decodeVertexRecsInto(out[:0], buf, format, true)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadInBlock exercises the owned-copy load path, which draws its
// working Scratch from the package pool — the per-call allocations here
// should be the returned copies only, not decode scratch.
func BenchmarkLoadInBlock(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.LoadInBlock(i%8, (i/8)%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefetchColumnSweep measures a full column-major in-block sweep
// (COP's traversal) through the prefetch pipeline at increasing read-ahead
// depths, against the synchronous depth-0 baseline.
func BenchmarkPrefetchColumnSweep(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, true)
	sched := inBlockSchedule(ds)
	for _, depth := range []int{0, 1, 2, 4} {
		b.Run("depth="+itoaBench(depth), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pf := ds.NewPrefetcher(sched, depth, nil)
				for range sched {
					res := pf.Next()
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					res.Release()
				}
				pf.Close()
			}
		})
	}
}

// BenchmarkBlockCacheSweep measures the hot-block cache on a repeated
// column sweep: the first pass misses and promotes, later passes are served
// from memory.
func BenchmarkBlockCacheSweep(b *testing.B) {
	ds := benchGraphStore(b, FormatRaw, true)
	sched := inBlockSchedule(ds)
	cache := NewBlockCache(256 << 20)
	warm := ds.NewPrefetcher(sched, 2, cache)
	for range sched {
		res := warm.Next()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		res.Release()
	}
	warm.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf := ds.NewPrefetcher(sched, 2, cache)
		for range sched {
			res := pf.Next()
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			res.Release()
		}
		pf.Close()
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(st.HitRate(), "hit-rate")
}

func itoaBench(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
