package dblsh

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// nonFinite returns the three non-finite float32 values a vector component
// can hold.
func nonFinite() []float32 {
	return []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
}

// TestAddRejectsNonFiniteVector pins the ingest boundary: a NaN or ±Inf
// component is rejected with ErrInvalidVector before anything reaches the
// index or the op log.
func TestAddRejectsNonFiniteVector(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 4, Seed: 3})
	defer idx.Close()
	for _, v := range randVecs(50, 4, 3) {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, walName)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	st0, _ := idx.Durability()
	n, next := idx.Len(), idx.NextID()
	for _, bad := range nonFinite() {
		if _, err := idx.Add([]float32{1, bad, 2, 3}); !errors.Is(err, ErrInvalidVector) {
			t.Fatalf("Add with component %v: err = %v, want ErrInvalidVector", bad, err)
		}
	}
	if idx.Len() != n || idx.NextID() != next {
		t.Fatalf("rejected adds changed the index: Len %d→%d, NextID %d→%d", n, idx.Len(), next, idx.NextID())
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := idx.Durability()
	if string(after) != string(before) || st1.LogBytes != st0.LogBytes || st1.OpsSinceCheckpoint != st0.OpsSinceCheckpoint {
		t.Fatalf("rejected adds reached the WAL: %d→%d bytes, %d→%d ops",
			len(before), len(after), st0.OpsSinceCheckpoint, st1.OpsSinceCheckpoint)
	}
}

// TestSearchRejectsNonFiniteQuery pins the query boundary: every options
// entry point returns ErrInvalidVector instead of k meaningless hits, and
// the no-error wrappers return nothing.
func TestSearchRejectsNonFiniteQuery(t *testing.T) {
	data := randVecs(300, 6, 5)
	for _, m := range []Metric{Euclidean, Cosine} {
		idx, err := New(data, Options{Seed: 5, Shards: 2, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		s := idx.NewSearcher()
		for _, bad := range nonFinite() {
			q := append([]float32(nil), data[7]...)
			q[2] = bad
			if _, err := idx.SearchOpts(q, 5); !errors.Is(err, ErrInvalidVector) {
				t.Fatalf("%v Index.SearchOpts(%v): err = %v", m, bad, err)
			}
			if _, err := s.SearchOpts(q, 5); !errors.Is(err, ErrInvalidVector) {
				t.Fatalf("%v Searcher.SearchOpts(%v): err = %v", m, bad, err)
			}
			if _, _, err := s.SearchRadiusOpts(q, 1); !errors.Is(err, ErrInvalidVector) {
				t.Fatalf("%v SearchRadiusOpts(%v): err = %v", m, bad, err)
			}
			batch, err := idx.SearchBatchOpts([][]float32{data[0], q}, 5)
			if !errors.Is(err, ErrInvalidVector) {
				t.Fatalf("%v SearchBatchOpts(%v): err = %v", m, bad, err)
			}
			// Only the invalid query's slot is empty; the valid one is
			// still answered.
			if len(batch) != 2 || len(batch[0]) != 5 || batch[1] != nil {
				t.Fatalf("%v SearchBatchOpts(%v): %d slots, %d and %d hits", m, bad, len(batch), len(batch[0]), len(batch[1]))
			}
			if got := idx.SearchBatch([][]float32{q, data[0]}, 5); got[0] != nil || len(got[1]) != 5 {
				t.Fatalf("%v SearchBatch(%v): %d and %d hits", m, bad, len(got[0]), len(got[1]))
			}
			if res := idx.Search(q, 5); len(res) != 0 {
				t.Fatalf("%v Search(%v) returned %d hits", m, bad, len(res))
			}
			if _, ok := idx.SearchOne(q); ok {
				t.Fatalf("%v SearchOne(%v) reported a hit", m, bad)
			}
		}
		// The boundary check must not reject finite queries.
		if res, err := idx.SearchOpts(data[7], 5); err != nil || len(res) != 5 {
			t.Fatalf("%v finite query: %d hits, err %v", m, len(res), err)
		}
	}
}
