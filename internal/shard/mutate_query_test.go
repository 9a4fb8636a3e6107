package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dblsh/internal/core"
)

// TestMutateDuringQuery hammers the cursor re-arm path: the coordinator
// releases each shard's lock between ladder rounds — a single-shard set's
// included — so Adds land mid-query and the per-tree cursors must detect
// the mutation and re-arm instead of silently missing the appended points.
// Run under -race this doubles as the memory-safety net for cursors pinning
// tree snapshots across rounds.
func TestMutateDuringQuery(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { mutateDuringQuery(t, shards) })
	}
}

func mutateDuringQuery(t *testing.T, shards int) {
	const dim = 8
	rng := rand.New(rand.NewSource(31))
	n := 4000
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64() * 5)
	}
	s := Build(flat, n, dim, shards, 0, core.Config{C: 1.5, K: 4, L: 3, T: 20, Seed: 31})

	stop := make(chan struct{})
	var added atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: a steady stream of appends across all shards
		defer wg.Done()
		wrng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32(wrng.NormFloat64() * 5)
			}
			s.Add(v)
			added.Add(1)
		}
	}()

	var qwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		qwg.Add(1)
		go func(worker int) {
			defer qwg.Done()
			qrng := rand.New(rand.NewSource(int64(worker)))
			sr := s.NewSearcher()
			for it := 0; it < 150; it++ {
				q := make([]float32, dim)
				for j := range q {
					q[j] = float32(qrng.NormFloat64() * 5)
				}
				nbs, err := sr.Search(q, 10, core.QueryParams{})
				if err != nil {
					t.Errorf("worker %d: search error: %v", worker, err)
					return
				}
				if len(nbs) == 0 {
					t.Errorf("worker %d: empty result on a populated index", worker)
					return
				}
				bound := s.NextID()
				prev := -1.0
				for _, nb := range nbs {
					if nb.ID < 0 || nb.ID >= bound {
						t.Errorf("worker %d: id %d outside allocated id space [0,%d)", worker, nb.ID, bound)
						return
					}
					if nb.Dist < prev {
						t.Errorf("worker %d: results not sorted", worker)
						return
					}
					prev = nb.Dist
				}
			}
		}(w)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
	if added.Load() == 0 {
		t.Fatal("writer never ran; the interleaving was not exercised")
	}
}

// TestMidQueryAddIsFindable pins the observable contract the re-arm
// exists for: a vector added while queries are in flight is returned by a
// subsequent search through the same (already-armed) searcher.
func TestMidQueryAddIsFindable(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(8))
	n := 1000
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64() * 20)
	}
	s := Build(flat, n, dim, 2, 0, core.Config{C: 1.5, K: 4, L: 2, T: 20, Seed: 8})
	sr := s.NewSearcher()

	q := make([]float32, dim)
	if _, err := sr.Search(q, 5, core.QueryParams{}); err != nil {
		t.Fatal(err)
	}
	// The searcher's cursors are now armed against the pre-Add trees.
	id := s.Add(make([]float32, dim)) // exact match for q
	nbs, err := sr.Search(q, 5, core.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 0 || nbs[0].ID != id || nbs[0].Dist != 0 {
		t.Fatalf("added vector not found first: got %+v, want id %d at distance 0", nbs, id)
	}
}
