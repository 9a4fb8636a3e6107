package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dblsh/internal/core"
	"dblsh/internal/dataset"
	"dblsh/internal/eval"
	"dblsh/internal/shard"
	"dblsh/internal/vec"
)

// The query contract of Algorithms 1 and 2. The radius ladder runs in the
// shard coordinator for every layout, so these tests drive shard.Set — at
// one shard (the library default, whose shard 0 is the index core.Build
// makes) and at three striped shards.

var shardCounts = []int{1, 3}

// forShards runs f as one subtest per shard count.
func forShards(t *testing.T, f func(t *testing.T, shards int)) {
	t.Helper()
	for _, s := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", s), func(t *testing.T) { f(t, s) })
	}
}

// buildSet builds a set over data's rows; global id i is row i.
func buildSet(data *vec.Matrix, shards int, cfg core.Config) *shard.Set {
	return shard.Build(data.Data(), data.Rows(), data.Dim(), shards, 0, cfg)
}

// search answers a (c,k)-ANN query with the build-time knobs.
func search(set *shard.Set, q []float32, k int) []vec.Neighbor {
	nbs, _, err := set.Search(q, k, core.QueryParams{})
	if err != nil {
		panic(err) // no context: cannot fail
	}
	return nbs
}

// searchWith answers a (c,k)-ANN query through sr.
func searchWith(sr *shard.Searcher, q []float32, k int) []vec.Neighbor {
	nbs, err := sr.Search(q, k, core.QueryParams{})
	if err != nil {
		panic(err)
	}
	return nbs
}

// rnear answers an (r,c)-NN query through sr.
func rnear(sr *shard.Searcher, q []float32, r float64) (vec.Neighbor, bool) {
	nb, ok, err := sr.SearchRadius(q, r, core.QueryParams{})
	if err != nil {
		panic(err)
	}
	return nb, ok
}

func testDataset(n, d int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Profile{
		Name: "t", N: n, Dim: d, Queries: 20, Clusters: 8, Std: 1, Spread: 10, Seed: seed,
	})
}

func TestEmptyIndex(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(vec.NewMatrix(0, 8), shards, core.Config{K: 4, L: 2, Seed: 1})
		if res := search(set, make([]float32, 8), 5); len(res) != 0 {
			t.Fatalf("KANN on empty index = %v", res)
		}
		if _, ok := rnear(set.NewSearcher(), make([]float32, 8), 1); ok {
			t.Fatal("RNear on empty index should report !ok")
		}
		if res := search(set, make([]float32, 8), 1); len(res) != 0 {
			t.Fatal("ANN on empty index should report !ok")
		}
	})
}

func TestKANNRecallOnClusteredData(t *testing.T) {
	ds := testDataset(10_000, 64, 3)
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 10)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 3})
		s := set.NewSearcher()
		var recall, ratio float64
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			res := searchWith(s, ds.Queries.Row(qi), 10)
			if len(res) == 0 {
				t.Fatalf("query %d: empty result", qi)
			}
			recall += eval.Recall(res, truth[qi])
			ratio += eval.OverallRatio(res, truth[qi])
		}
		recall /= float64(ds.Queries.Rows())
		ratio /= float64(ds.Queries.Rows())
		if recall < 0.8 {
			t.Fatalf("recall = %v, want ≥ 0.8", recall)
		}
		if ratio > 1.05 {
			t.Fatalf("overall ratio = %v, want ≤ 1.05", ratio)
		}
	})
}

func TestANNApproximationGuarantee(t *testing.T) {
	// Theorem 1: the returned point is a c²-ANN with constant probability.
	// Over many queries the failure rate must be far below the 1/2+1/e bound
	// (in practice almost all queries succeed).
	ds := testDataset(5000, 32, 4)
	c := 1.5
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 1)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: c, K: 10, L: 5, T: 50, Seed: 4})
		s := set.NewSearcher()
		fails := 0
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			res := searchWith(s, ds.Queries.Row(qi), 1)
			if len(res) == 0 {
				fails++
				continue
			}
			if res[0].Dist > c*c*truth[qi][0].Dist+1e-9 {
				fails++
			}
		}
		if fails > ds.Queries.Rows()/4 {
			t.Fatalf("%d/%d queries broke the c² guarantee", fails, ds.Queries.Rows())
		}
	})
}

func TestKANNResultsSortedUnique(t *testing.T) {
	ds := testDataset(3000, 16, 5)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 5})
		s := set.NewSearcher()
		for qi := 0; qi < 5; qi++ {
			res := searchWith(s, ds.Queries.Row(qi), 20)
			seen := map[int]bool{}
			prev := -1.0
			for _, nb := range res {
				if seen[nb.ID] {
					t.Fatalf("duplicate id %d in results", nb.ID)
				}
				seen[nb.ID] = true
				if nb.Dist < prev {
					t.Fatal("results not sorted")
				}
				prev = nb.Dist
				// Distances must be genuine.
				if got := vec.Dist(ds.Queries.Row(qi), ds.Data.Row(nb.ID)); got != nb.Dist {
					t.Fatalf("stored dist %v, recomputed %v", nb.Dist, got)
				}
			}
		}
	})
}

func TestKANNRespectsBudget(t *testing.T) {
	ds := testDataset(5000, 32, 6)
	cfgT := 10
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 10, L: 5, T: cfgT, Seed: 6})
		s := set.NewSearcher()
		k := 5
		budget := 2*cfgT*5 + k
		for qi := 0; qi < 10; qi++ {
			searchWith(s, ds.Queries.Row(qi), k)
			if got := s.LastStats().Candidates; got > budget {
				t.Fatalf("candidates %d exceed budget %d", got, budget)
			}
		}
	})
}

func TestKANNSmallDatasetExact(t *testing.T) {
	// With n below the budget, KANN degenerates to exact search.
	ds := testDataset(150, 8, 7)
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 5)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 2, K: 4, L: 3, T: 100, Seed: 7})
		s := set.NewSearcher()
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			res := searchWith(s, ds.Queries.Row(qi), 5)
			if r := eval.Recall(res, truth[qi]); r != 1 {
				t.Fatalf("query %d: recall %v on sub-budget dataset", qi, r)
			}
		}
	})
}

func TestRNearContract(t *testing.T) {
	ds := testDataset(2000, 16, 8)
	c := 1.5
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 1)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: c, K: 8, L: 4, T: 50, Seed: 8})
		s := set.NewSearcher()
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			rStar := truth[qi][0].Dist
			// Definition 2 case 1: points exist within r → must return one ≤ c·r
			// (with constant probability; we tolerate a small failure count).
			nb, ok := rnear(s, ds.Queries.Row(qi), rStar*1.01)
			if ok && nb.Dist > c*rStar*1.01+1e-9 {
				// Budget-exhaustion return may exceed cr; verify it was budget.
				if s.LastStats().Candidates < 2*50*4+1 {
					t.Fatalf("query %d: RNear returned dist %v > c·r without exhausting budget", qi, nb.Dist)
				}
			}
		}
	})
}

func TestRNearTinyRadiusReturnsNothing(t *testing.T) {
	ds := testDataset(2000, 16, 9)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 8, L: 4, T: 50, Seed: 9})
		s := set.NewSearcher()
		found := 0
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			if _, ok := rnear(s, ds.Queries.Row(qi), 1e-9); ok {
				found++
			}
		}
		// At a vanishing radius the window is almost empty; (r,c)-NN should
		// nearly always return nothing (Definition 2 case 2).
		if found > 2 {
			t.Fatalf("%d queries returned points at radius 1e-9", found)
		}
	})
}

// TestRNearBlockedContract checks the fixed-radius round still honors
// Algorithm 1's contract on random instances.
func TestRNearBlockedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := vec.NewMatrix(250, 5)
	for i := 0; i < data.Rows(); i++ {
		for j := range data.Row(i) {
			data.Row(i)[j] = float32(rng.NormFloat64() * 8)
		}
	}
	cfg := core.Config{C: 1.5, K: 5, L: 3, T: 12, Seed: 77}
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(data, shards, cfg)
		s := set.NewSearcher()
		rng := rand.New(rand.NewSource(78))
		for trial := 0; trial < 40; trial++ {
			q := make([]float32, data.Dim())
			for j := range q {
				q[j] = float32(rng.NormFloat64() * 8)
			}
			r := 0.5 + rng.Float64()*10
			nb, ok := rnear(s, q, r)
			if !ok {
				continue
			}
			budget := 2*cfg.T*cfg.L + 1
			if s.LastStats().Candidates < budget && nb.Dist > cfg.C*r+1e-9 {
				t.Fatalf("RNear returned %v beyond c·r = %v without exhausting budget", nb.Dist, cfg.C*r)
			}
			if vec.Dist(q, data.Row(nb.ID)) != nb.Dist {
				t.Fatalf("RNear distance %v is not the true distance", nb.Dist)
			}
		}
	})
}

func TestSearcherReuseAcrossQueries(t *testing.T) {
	ds := testDataset(1000, 16, 10)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 6, L: 3, T: 30, Seed: 10})
		s := set.NewSearcher()
		q := ds.Queries.Row(0)
		first := searchWith(s, q, 5)
		for i := 0; i < 50; i++ {
			searchWith(s, ds.Queries.Row(i%ds.Queries.Rows()), 5)
		}
		again := searchWith(s, q, 5)
		if len(first) != len(again) {
			t.Fatalf("result size changed on reuse: %d vs %d", len(first), len(again))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("result changed on searcher reuse: %+v vs %+v", first[i], again[i])
			}
		}
	})
}

func TestConcurrentQueries(t *testing.T) {
	ds := testDataset(3000, 32, 11)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 11})
		done := make(chan []vec.Neighbor, 8)
		for g := 0; g < 8; g++ {
			go func() {
				done <- search(set, ds.Queries.Row(0), 5)
			}()
		}
		first := <-done
		for g := 1; g < 8; g++ {
			res := <-done
			if len(res) != len(first) {
				t.Fatalf("concurrent result size mismatch")
			}
			for i := range res {
				if res[i] != first[i] {
					t.Fatal("concurrent queries returned different results")
				}
			}
		}
	})
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	ds := testDataset(2000, 16, 12)
	forShards(t, func(t *testing.T, shards int) {
		a := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 99})
		b := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 99})
		ra := search(a, ds.Queries.Row(0), 10)
		rb := search(b, ds.Queries.Row(0), 10)
		if len(ra) != len(rb) {
			t.Fatal("sizes differ")
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatal("identically-seeded builds answered differently")
			}
		}
	})
}

func TestQueryDimPanics(t *testing.T) {
	ds := testDataset(100, 8, 13)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{K: 4, L: 2, Seed: 13})
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		search(set, make([]float32, 4), 1)
	})
}

func TestKZeroPanics(t *testing.T) {
	ds := testDataset(100, 8, 14)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{K: 4, L: 2, Seed: 14})
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		search(set, make([]float32, 8), 0)
	})
}

func TestStatsPopulated(t *testing.T) {
	ds := testDataset(2000, 16, 15)
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(ds.Data, shards, core.Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 15})
		s := set.NewSearcher()
		searchWith(s, ds.Queries.Row(0), 5)
		st := s.LastStats()
		if st.Candidates <= 0 || st.Rounds <= 0 || st.FinalR <= 0 {
			t.Fatalf("stats not populated: %+v", st)
		}
	})
}

func TestDuplicateHeavyData(t *testing.T) {
	// Many duplicated points must not break dedup or termination.
	data := vec.NewMatrix(1000, 8)
	rng := rand.New(rand.NewSource(16))
	proto := make([]float32, 8)
	for j := range proto {
		proto[j] = float32(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		row := data.Row(i)
		copy(row, proto)
		if i%10 == 0 { // 10% unique points
			for j := range row {
				row[j] += float32(rng.NormFloat64() * 5)
			}
		}
	}
	forShards(t, func(t *testing.T, shards int) {
		set := buildSet(data, shards, core.Config{C: 1.5, K: 6, L: 3, T: 20, Seed: 16})
		res := search(set, proto, 10)
		if len(res) != 10 {
			t.Fatalf("got %d results", len(res))
		}
		if res[0].Dist != 0 {
			t.Fatalf("nearest duplicate dist = %v", res[0].Dist)
		}
	})
}

// TestSingleShardMatchesLadder pins the single-shard coordinator to a
// plain Algorithm 2 ladder over the index core.Build makes from the same
// rows and base seed (the test-only loop the traversal fuzzers use):
// identical neighbors, distances, candidate and round counts, and final
// radius, across ks, budgets, filters, early-stop factors and deletes.
func TestSingleShardMatchesLadder(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, d := 200+int(seed)*40, 6
		data := vec.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				data.Row(i)[j] = float32(rng.NormFloat64() * 8)
			}
		}
		cfg := core.Config{C: 1.5, K: 5, L: 3, T: 12, Seed: seed}
		set := buildSet(data, 1, cfg)
		idx := core.Build(data, cfg)
		for i := 0; i < n/10; i++ {
			g := rng.Intn(n)
			set.Delete(g)
			idx.Delete(g)
		}
		sr, cs := set.NewSearcher(), idx.NewSearcher()
		for trial := 0; trial < 6; trial++ {
			q := make([]float32, d)
			for j := range q {
				q[j] = float32(rng.NormFloat64() * 8)
			}
			k := 1 + rng.Intn(20)
			p := core.QueryParams{T: trial % 3 * 4}
			if trial%2 == 1 {
				p.Filter = func(id int) bool { return id%3 != 0 }
			}
			if trial == 4 {
				p.EarlyStopFactor = 1.7
				p.MaxRadius = 5 + rng.Float64()*10
			}
			got, err := sr.Search(q, k, p)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, _ := core.LadderQuery(cs, q, k, p, false)
			label := fmt.Sprintf("seed=%d trial=%d k=%d", seed, trial, k)
			if len(got) != len(want) {
				t.Fatalf("%s: %d vs %d results", label, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: rank %d: coordinator %+v, ladder %+v", label, i, got[i], want[i])
				}
			}
			gst := sr.LastStats()
			if gst.Candidates != wst.Candidates || gst.Rounds != wst.Rounds || gst.FinalR != wst.FinalR ||
				gst.NodesVisited != wst.NodesVisited || gst.Frontier != cs.FrontierLen() {
				t.Fatalf("%s: stats diverge: coordinator %+v, ladder %+v (frontier %d)", label, gst, wst, cs.FrontierLen())
			}
		}
	}
}

func BenchmarkKANN(b *testing.B) {
	ds := testDataset(50_000, 128, 1)
	s := buildSet(ds.Data, 1, core.Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 1}).NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = searchWith(s, ds.Queries.Row(i%ds.Queries.Rows()), 50)
	}
}
