package serve

import (
	"math/rand"
	"testing"

	"tracon/internal/model"
)

// The acceptance bar for the prediction cache: for every model family,
// cached answers equal uncached answers bit-for-bit across randomized
// query mixes — the cache may only change latency, never a prediction.
func TestCachedPredictionsMatchUncached(t *testing.T) {
	for _, k := range []model.Kind{model.WMM, model.LM, model.NLM, model.Forest} {
		t.Run(k.String(), func(t *testing.T) {
			lib := testLibrary(t, k)
			cp, err := NewCachingPredictor(lib, NewPredCache(0), 1)
			if err != nil {
				t.Fatal(err)
			}
			apps := lib.Apps()
			corunners := append([]string{""}, apps...)
			rng := rand.New(rand.NewSource(42))
			type query struct {
				op               predOp
				target, corunner string
			}
			queries := make([]query, 200)
			for i := range queries {
				queries[i] = query{
					op:       predOp(rng.Intn(4)),
					target:   apps[rng.Intn(len(apps))],
					corunner: corunners[rng.Intn(len(corunners))],
				}
			}
			ask := func(p model.Predictor, q query) float64 {
				var v float64
				var err error
				switch q.op {
				case opRuntime:
					v, err = p.PredictRuntime(q.target, q.corunner)
				case opIOPS:
					v, err = p.PredictIOPS(q.target, q.corunner)
				case opSoloRuntime:
					v, err = p.SoloRuntime(q.target)
				default:
					v, err = p.SoloIOPS(q.target)
				}
				if err != nil {
					t.Fatalf("%v(%s,%s): %v", q.op, q.target, q.corunner, err)
				}
				return v
			}
			// Two passes: the first fills, the second must be served from
			// cache — and both must equal the uncached reference exactly.
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					if got, want := ask(cp, q), ask(lib, q); got != want {
						t.Fatalf("pass %d: cached %v != uncached %v for %+v", pass, got, want, q)
					}
				}
			}
			st := cp.Cache().Stats()
			if st.Hits == 0 {
				t.Fatal("no cache hits across repeated identical queries")
			}
			if st.Evictions != 0 {
				t.Fatalf("unexpected evictions at default cap: %+v", st)
			}
		})
	}
}

// Unknown names bypass the cache and surface the library's typed errors.
func TestCachePassesThroughUnknownApps(t *testing.T) {
	lib := testLibrary(t, model.LM)
	cp, err := NewCachingPredictor(lib, NewPredCache(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.PredictRuntime("nosuch", ""); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := cp.PredictRuntime(lib.Apps()[0], "nosuch"); err == nil {
		t.Fatal("unknown corunner accepted")
	}
	if n := cp.Cache().Len(); n != 0 {
		t.Fatalf("error paths populated the cache: %d entries", n)
	}
}

// Under a tiny capacity the cache must stay bounded, evict, and keep
// returning correct values for whatever is or is not resident.
func TestCacheEvictionBound(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	const capPerShard = 2
	cache := NewPredCache(capPerShard)
	cp, err := NewCachingPredictor(lib, cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	apps := lib.Apps()
	corunners := append([]string{""}, apps...)
	// 8 apps × 9 corunners × 2 ops = 144 distinct keys ≫ 16 shards × 2.
	for _, a := range apps {
		for _, c := range corunners {
			if _, err := cp.PredictRuntime(a, c); err != nil {
				t.Fatal(err)
			}
			if _, err := cp.PredictIOPS(a, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, max := cache.Len(), capPerShard*cacheShards; n > max {
		t.Fatalf("cache holds %d entries, bound is %d", n, max)
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("no evictions despite exceeding capacity")
	}
	// Post-eviction correctness: every value still matches the reference,
	// whether it is recomputed or resident.
	for _, a := range apps {
		for _, c := range corunners {
			got, err := cp.PredictRuntime(a, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := lib.PredictRuntime(a, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("post-eviction divergence for (%s,%s)", a, c)
			}
		}
	}
}

// Distinct generations must never share entries, even for byte-identical
// feature vectors (a retrain can change the model without changing the
// app's characteristics).
func TestCacheGenerationsDoNotCollide(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	cache := NewPredCache(0)
	cp1, err := NewCachingPredictor(lib, cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := NewCachingPredictor(lib, cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	app := lib.Apps()[0]
	if _, err := cp1.PredictRuntime(app, ""); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := cp2.PredictRuntime(app, ""); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits {
		t.Fatal("generation 2 hit generation 1's entry")
	}
	if after.Entries != before.Entries+1 {
		t.Fatalf("expected a fresh entry per generation: %+v vs %+v", before, after)
	}
}

// The placement decisions of a cached server must be identical to an
// uncached one fed the same request sequence — the cache is a pure
// memoization layer.
func TestCacheDoesNotChangePlacementDecisions(t *testing.T) {
	lib := testLibrary(t, model.NLM)
	mk := func(disable bool) *Server {
		s, err := New(lib, Config{Machines: 4, Policy: "mios", DisableCache: disable})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cached, uncached := mk(false), mk(true)
	apps := lib.Apps()
	rng := rand.New(rand.NewSource(7))
	var placedC, placedU []string
	for i := 0; i < 120; i++ {
		app := apps[rng.Intn(len(apps))]
		rc, err1 := cached.Placer().SubmitKeyed(app, "", "")
		ru, err2 := uncached.Placer().SubmitKeyed(app, "", "")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if rc.Status != ru.Status || rc.Machine != ru.Machine || rc.Slot != ru.Slot ||
			rc.Neighbour != ru.Neighbour || rc.PredictedRuntime != ru.PredictedRuntime {
			t.Fatalf("decision %d diverged: cached %+v vs uncached %+v", i, rc, ru)
		}
		if rc.Status == StatusPlaced {
			placedC = append(placedC, rc.ID)
			placedU = append(placedU, ru.ID)
		}
		// Periodically free the oldest placement on both to cycle slots.
		if len(placedC) > 5 {
			if _, err := cached.Placer().Complete(placedC[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := uncached.Placer().Complete(placedU[0]); err != nil {
				t.Fatal(err)
			}
			placedC, placedU = placedC[1:], placedU[1:]
		}
	}
	if err := cached.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := uncached.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cached.cache.Stats().Hits == 0 {
		t.Fatal("cached server never hit its cache")
	}
}

// benchQueries builds a fixed query mix over the library's app pairs.
func benchQueries(lib *model.Library) [][2]string {
	apps := lib.Apps()
	var qs [][2]string
	for _, a := range apps {
		for _, c := range append([]string{""}, apps...) {
			qs = append(qs, [2]string{a, c})
		}
	}
	return qs
}

func benchmarkPredict(b *testing.B, p model.Predictor, qs [][2]string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := p.PredictRuntime(q[0], q[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// The measured hit-path speedup of the acceptance criteria: cached
// prediction vs full regression evaluation, per family.
func BenchmarkPredictUncachedNLM(b *testing.B) {
	lib := testLibrary(b, model.NLM)
	benchmarkPredict(b, lib, benchQueries(lib))
}

func BenchmarkPredictCachedNLM(b *testing.B) {
	lib := testLibrary(b, model.NLM)
	cp, err := NewCachingPredictor(lib, NewPredCache(0), 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(lib)
	for _, q := range qs { // warm
		if _, err := cp.PredictRuntime(q[0], q[1]); err != nil {
			b.Fatal(err)
		}
	}
	benchmarkPredict(b, cp, qs)
}

func BenchmarkPredictUncachedForest(b *testing.B) {
	lib := testLibrary(b, model.Forest)
	benchmarkPredict(b, lib, benchQueries(lib))
}

func BenchmarkPredictCachedForest(b *testing.B) {
	lib := testLibrary(b, model.Forest)
	cp, err := NewCachingPredictor(lib, NewPredCache(0), 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(lib)
	for _, q := range qs {
		if _, err := cp.PredictRuntime(q[0], q[1]); err != nil {
			b.Fatal(err)
		}
	}
	benchmarkPredict(b, cp, qs)
}
