package blockstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// storeDigest hashes every blob of st in name order: a line with the
// name and length, then the bytes.
func storeDigest(t *testing.T, st *storage.MemStore) string {
	t.Helper()
	h := sha256.New()
	for _, name := range st.List() { // sorted
		data, err := st.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func buildDigest(t *testing.T, g *graph.Graph, opts Options) string {
	t.Helper()
	st := memStore()
	if _, err := BuildOpts(st, g, opts); err != nil {
		t.Fatal(err)
	}
	return storeDigest(t, st)
}

type goldenGraph struct {
	name string
	g    *graph.Graph
	p    int
}

// goldenGraphs are seeded, duplicate-free generator outputs: a skewed
// R-MAT, a web graph with tendrils (edges not in (src,dst) order), and a
// symmetrized R-MAT. Weights are assigned after generation so every
// edge's weight is fixed by the seed alone.
func goldenGraphs() []goldenGraph {
	rmat := gen.RMAT(1500, 12000, gen.Graph500, rand.New(rand.NewSource(31)))
	gen.AssignUniformWeights(rmat, 1, 10, rand.New(rand.NewSource(32)))

	rng := rand.New(rand.NewSource(33))
	web := gen.Web(1800, 9000, gen.DefaultWeb, rng)
	web.NumVertices = 2000
	gen.AddTendrils(web, 1800, 20, rng)
	gen.AssignUniformWeights(web, 1, 10, rand.New(rand.NewSource(34)))

	sym := gen.RMAT(1000, 6000, gen.Graph500, rand.New(rand.NewSource(35))).Symmetrize()
	gen.AssignUniformWeights(sym, 1, 10, rand.New(rand.NewSource(36)))

	return []goldenGraph{
		{"rmat", rmat, 4},
		{"web-tendrils", web, 7},
		{"rmat-sym", sym, 3},
	}
}

// goldenDigests are storeDigest values of BuildOpts output, computed
// with the comparison-sort build that preceded the linear-time one. Keys
// are graph/format, plus /weighted for weighted stores.
var goldenDigests = map[string]string{
	"rmat/raw/weighted":                "caec7c593770221de2faa5b0a2f53c3f70b17acc10a4b7cd73f25011fe47776e",
	"rmat/raw":                         "74d6c2a51799eaa05115b8b9c328ac3ba3f519243aabb30abf4b288e1d448f5a",
	"rmat/compressed/weighted":         "6d43a6fb0747ef12b4fdcc6cdb7425893dff74d7bf1c984f2c4b0c67b416c0c2",
	"rmat/compressed":                  "efb0ace4e65f9a9978a62ff63d0d3c660c5f1d88de673caf5ec283610903f357",
	"rmat/mixed/weighted":              "11fe6a41f36930e45c051703a04e31b91be3fc1f94ebeba5496947f97292c072",
	"rmat/mixed":                       "3cab055fe0416350b515f7d5644e26a5e02871232c064e5971d1ede381167ec3",
	"web-tendrils/raw/weighted":        "11eb36bd896ad8d5ecc6caa67e2070a8760411bea3dc3448afeae37e898a4b1e",
	"web-tendrils/raw":                 "41fa7c780c2a2baaf860517ad714cb8a3591c1ce4f1ec4cab8715d06e9c452ba",
	"web-tendrils/compressed/weighted": "befc67d732d312de090ad84e6a085762764c267176eb12522f58d83d2f5730a7",
	"web-tendrils/compressed":          "128872d1e2efe1986c9991311eec606bccbbc8d1d116f2bbaffd2d9b4163e7d7",
	"web-tendrils/mixed/weighted":      "d8e88dd9e5878a7d835bad26692803c8599d64e305f95ca8c74f3c74eb225d74",
	"web-tendrils/mixed":               "58d7bf40b6d86f6471ced0b169cf1afc1008b9a95f9c4f3665cfb1b20cced38f",
	"rmat-sym/raw/weighted":            "1dc5a5fc7a694545661b824a787ac2ff8f518968ca558be5108b38b77a7365f8",
	"rmat-sym/raw":                     "1076ef20885367680bdcc7821a040c9f7b75991b274b7ffaa8fe8a9dbf5d9c44",
	"rmat-sym/compressed/weighted":     "5f9b0f8667b0902cb92b0d10a0b8c546a497d5f8e702c7163f8d7f3d94e74265",
	"rmat-sym/compressed":              "a691fcbf0d0f731e838e82d3db88b90ac1859d79e58db0e9280d8c2741265104",
	"rmat-sym/mixed/weighted":          "2e16f48fe631e057b95d382116b91e84dcbeab3e4dc14137652853d7553a32b0",
	"rmat-sym/mixed":                   "80d807ed02955907b5113a462c49859c61ed36afefe097f57f1345952fc288f0",
}

// TestBuildGoldenDigests pins BuildOpts' output bytes. Any change to the
// block, index or meta encoding, or to the edge order inside a block,
// changes a digest; a change that only makes preprocessing faster must
// not. A shuffled copy of each edge list must build the same store.
func TestBuildGoldenDigests(t *testing.T) {
	seen := 0
	for _, gg := range goldenGraphs() {
		shuffled := gg.g.Clone()
		rand.New(rand.NewSource(37)).Shuffle(len(shuffled.Edges), func(a, b int) {
			shuffled.Edges[a], shuffled.Edges[b] = shuffled.Edges[b], shuffled.Edges[a]
		})
		for _, format := range []Format{FormatRaw, FormatCompressed, FormatMixed} {
			for _, weighted := range []bool{true, false} {
				key := gg.name + "/" + format.String()
				if weighted {
					key += "/weighted"
				}
				opts := Options{P: gg.p, Format: format, Weighted: weighted}
				if got := buildDigest(t, gg.g, opts); got != goldenDigests[key] {
					t.Errorf("%s: digest %s, want %s", key, got, goldenDigests[key])
				}
				if got := buildDigest(t, shuffled, opts); got != goldenDigests[key] {
					t.Errorf("%s shuffled: digest %s, want %s", key, got, goldenDigests[key])
				}
				seen++
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Fatalf("checked %d digests, table has %d", seen, len(goldenDigests))
	}
}
