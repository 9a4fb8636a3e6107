package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dblsh"
	"dblsh/internal/dataset"
	"dblsh/internal/vec"
)

// setupReps is how many times a run sets the system up; setup_s reports the
// median, so one slow build does not move it.
const setupReps = 3

// inputs is a workload's generated corpus with its held-out rows.
type inputs struct {
	data    *vec.Matrix // corpus, N×Dim
	queries *vec.Matrix // held-out search queries
	adds    *vec.Matrix // held-out rows for adds
}

// generate builds the workload's inputs: its fixed corpus, and queries and
// add rows the seed draws, without replacement, from the held-out pool
// generated with it (same mixture, not in the corpus).
func generate(w workload, seed int64) inputs {
	p := w.profile
	p.Name = w.name
	p.Queries = w.pool
	ds := dataset.Generate(p)
	perm := rand.New(rand.NewSource(seed)).Perm(w.pool)
	pick := func(idx []int) *vec.Matrix {
		m := vec.NewMatrix(len(idx), p.Dim)
		for i, r := range idx {
			m.SetRow(i, ds.Queries.Row(r))
		}
		return m
	}
	return inputs{
		data:    ds.Data,
		queries: pick(perm[:w.queries]),
		adds:    pick(perm[w.queries : w.queries+w.adds]),
	}
}

// groundTruth computes each query's exact k nearest neighbors among the rows
// that live accepts (nil: all), by brute force over row blocks so the corpus
// streams through the cache once per worker. It is never timed.
func groundTruth(data *vec.Matrix, queries [][]float32, k int, live func(int) bool) [][]vec.Neighbor {
	workers := runtime.GOMAXPROCS(0)
	out := make([][]vec.Neighbor, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for qi := w; qi < len(queries); qi += workers {
				mine = append(mine, qi)
			}
			tks := make([]*vec.TopK, len(mine))
			for i := range tks {
				tks[i] = vec.NewTopK(k)
			}
			const block = 256
			for lo := 0; lo < data.Rows(); lo += block {
				hi := min(lo+block, data.Rows())
				for i, qi := range mine {
					q := queries[qi]
					for r := lo; r < hi; r++ {
						if live != nil && !live(r) {
							continue
						}
						tks[i].Push(r, vec.SquaredDist(q, data.Row(r)))
					}
				}
			}
			for i, qi := range mine {
				res := tks[i].Results()
				for j := range res {
					res[j].Dist = math.Sqrt(res[j].Dist)
				}
				out[qi] = res
			}
		}(w)
	}
	wg.Wait()
	return out
}

func rows(m *vec.Matrix) [][]float32 {
	out := make([][]float32, m.Rows())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// checkHits verifies one search answer: min(k, live) hits, unique ids of
// live rows, ascending distances, and every distance equal to the exact
// distance the benchmark recomputes from the row (to float32 summation
// order). It reports the first violation, or "" when the answer is correct.
func checkHits(q []float32, hits []dblsh.Result, k, live int, row func(id int) ([]float32, bool)) string {
	if want := min(k, live); len(hits) != want {
		return fmt.Sprintf("%d hits, want %d", len(hits), want)
	}
	seen := make(map[int]bool, len(hits))
	for i, h := range hits {
		if seen[h.ID] {
			return fmt.Sprintf("id %d returned twice", h.ID)
		}
		seen[h.ID] = true
		if i > 0 && h.Dist < hits[i-1].Dist {
			return fmt.Sprintf("hit %d out of order (%v after %v)", i, h.Dist, hits[i-1].Dist)
		}
		r, ok := row(h.ID)
		if !ok {
			return fmt.Sprintf("id %d is not a live vector", h.ID)
		}
		if exact := vec.Dist(q, r); !distEqual(h.Dist, exact) {
			return fmt.Sprintf("id %d dist %v, exact %v", h.ID, h.Dist, exact)
		}
	}
	return ""
}

// distEqual compares a reported distance with the recomputed one. The
// engine's blocked kernels and the benchmark's may sum float32 products in a
// different order, so equality allows a few float32 ulps.
func distEqual(got, exact float64) bool {
	return math.Abs(got-exact) <= 1e-5*math.Max(1, exact)
}

// quality accumulates recall@k and the paper's overall ratio (Eq. 11):
// the mean over queries of (1/k)·Σ_i ‖q,o_i‖/‖q,o*_i‖.
type quality struct {
	recall, ratio float64
	hits          int // true neighbors found
	n             int
}

func (qa *quality) add(hits []dblsh.Result, truth []vec.Neighbor, k int) {
	want := make(map[int]bool, len(truth))
	for _, t := range truth {
		want[t.ID] = true
	}
	found := 0
	ratio, rn := 0.0, 0
	for i, h := range hits {
		if want[h.ID] {
			found++
		}
		if i < len(truth) && truth[i].Dist > 0 {
			ratio += h.Dist / truth[i].Dist
			rn++
		}
	}
	qa.recall += float64(found) / float64(min(k, len(truth)))
	if rn > 0 {
		qa.ratio += ratio / float64(rn)
	}
	qa.hits += found
	qa.n++
}

func (qa *quality) report(rep *report) {
	if qa.n == 0 {
		return
	}
	rep.setE2E("recall_at_k", metricVal{Value: qa.recall / float64(qa.n), Unit: "frac", N: qa.n})
	rep.setE2E("overall_ratio", metricVal{Value: qa.ratio / float64(qa.n), Unit: "ratio", N: qa.n})
}

// heapInUse returns the Go heap in use after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// countWriter counts bytes written to it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func indexOptions(w workload) dblsh.Options {
	return dblsh.Options{Shards: w.shards, Quantize: "on"}
}

// buildReps builds the index setupReps times from the same inputs, keeps
// the last, and returns the build times in seconds.
func buildReps(w workload, in inputs) (*dblsh.Index, []float64, error) {
	var idx *dblsh.Index
	var secs []float64
	for r := 0; r < setupReps; r++ {
		idx = nil
		debug.FreeOSMemory() // drop the previous rep's index before building the next
		t0 := time.Now()
		var err error
		idx, err = dblsh.NewFromFlat(in.data.Data(), in.data.Rows(), in.data.Dim(), indexOptions(w))
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return idx, secs, nil
}

// runInProcess runs a read workload: build the index (setup_s), then one
// closed-loop client searching for the run's seconds, then the held-out
// adds. Every answer is checked after the timed loop.
func runInProcess(w workload, cfg runConfig, rep *report) error {
	in := generate(w, cfg.seed)
	qs := rows(in.queries)
	truth := groundTruth(in.data, qs, w.k, nil)
	n := in.data.Rows()

	base := heapInUse()
	idx, setup, err := buildReps(w, in)
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", metricVal{Value: median(setup), Unit: "s", N: len(setup), Note: "NewFromFlat, median of reps"})
	adopted := uint64(0)
	if w.shards == 1 {
		adopted = uint64(len(in.data.Data()) * 4) // NewFromFlat wraps the caller's rows
	}
	mem := float64(heapInUse()-base+adopted) / float64(n)
	rep.setE2E("mem_bytes_per_vector", metricVal{Value: mem, Unit: "B", Note: "Go heap after GC, index only"})
	var cw countWriter
	if _, err := idx.WriteTo(&cw); err != nil {
		return fmt.Errorf("snapshot size: %w", err)
	}
	rep.setE2E("disk_bytes_per_vector", metricVal{Value: float64(cw.n) / float64(n), Unit: "B", Note: "snapshot (WriteTo) bytes"})

	rowOf := func(id int) ([]float32, bool) {
		if id < 0 || id >= n {
			return nil, false
		}
		return in.data.Row(id), true
	}
	s := idx.NewSearcher()
	for i := 0; i < min(len(qs), 200); i++ { // warm caches and the searcher's scratch
		if _, err := s.SearchOpts(qs[i], w.k); err != nil {
			return err
		}
	}

	type answer struct {
		qi   int
		hits []dblsh.Result
	}
	var answers []answer
	var lat []float64
	// Completions are counted per one-second window and search_qps is the
	// median window, so a passing slow spell of the machine moves it less
	// than it moves the run's mean.
	var perWindow []float64
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < deadline; i++ {
		qi := i % len(qs)
		t0 := time.Now()
		hits, err := s.SearchOpts(qs[qi], w.k)
		done := time.Since(start)
		lat = append(lat, ms(done-t0.Sub(start)))
		rep.attempted++
		if err != nil {
			rep.errored("search: %v", err)
			continue
		}
		answers = append(answers, answer{qi, hits})
		if win := int(done / time.Second); win < int(deadline/time.Second) {
			for len(perWindow) <= win {
				perWindow = append(perWindow, 0)
			}
			perWindow[win]++
		}
	}
	qps := median(perWindow)
	fmt.Printf("windows searches_per_second=%v\n", perWindow)
	rep.setE2E("search_qps", metricVal{Value: qps, Unit: "1/s", N: len(perWindow), Note: "median 1s window; 1 client, closed loop"})
	rep.setE2E("sustained_qps", metricVal{Value: qps, Unit: "1/s", N: len(perWindow), Note: "closed loop: the rate the client sustained"})
	searchTiming(rep, lat)

	var qa quality
	for i, a := range answers {
		if msg := checkHits(qs[a.qi], a.hits, w.k, n, rowOf); msg != "" {
			rep.fail("query %d: %s", a.qi, msg)
		}
		if i < len(qs) {
			qa.add(a.hits, truth[a.qi], w.k)
		}
	}
	qa.report(rep)

	addLat, err := addPhase(idx, in, rep)
	if err != nil {
		return err
	}
	t := summarize(addLat, 99)
	rep.setE2E("add_p50_ms", metricVal{Value: t.P50, Unit: "ms", N: t.N})
	rep.setE2E("add_p99_ms", metricVal{Value: t.Tail, Unit: "ms", N: t.N, At: t.TailAt})
	rep.setE2E("ok_frac", metricVal{Value: 1 - float64(rep.failed)/float64(max(rep.attempted, 1)), Unit: "frac", N: rep.attempted})
	return nil
}

// searchTiming reports search_p50_ms and search_p99_ms from latencies in ms.
func searchTiming(rep *report, lat []float64) {
	t := summarize(lat, 99)
	rep.setE2E("search_p50_ms", metricVal{Value: t.P50, Unit: "ms", N: t.N})
	rep.setE2E("search_p99_ms", metricVal{Value: t.Tail, Unit: "ms", N: t.N, At: t.TailAt})
}

// addPhase adds the held-out rows one at a time, timing each Add, then
// checks that every added row is found at distance 0 under its returned id
// with an exhaustive candidate budget. The search is restricted to that id:
// the ladder's c·r termination test may otherwise stop on another point
// before the exact match is verified, so an unrestricted k=1 search does
// not prove the row was indexed.
func addPhase(idx *dblsh.Index, in inputs, rep *report) ([]float64, error) {
	n := in.data.Rows()
	lat := make([]float64, 0, in.adds.Rows())
	ids := make([]int, in.adds.Rows())
	for i := range ids {
		t0 := time.Now()
		id, err := idx.Add(in.adds.Row(i))
		lat = append(lat, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			rep.errored("add: %v", err)
			ids[i] = -1
			continue
		}
		if id != n+i {
			rep.fail("add %d got id %d, want %d", i, id, n+i)
		}
		ids[i] = id
	}
	live := idx.Len() - idx.Deleted()
	for i, id := range ids {
		if id < 0 {
			continue
		}
		only := func(x int) bool { return x == id }
		hits, err := idx.SearchOpts(in.adds.Row(i), 1, dblsh.WithCandidateBudget(live), dblsh.WithFilter(only))
		if err != nil {
			return nil, err
		}
		if len(hits) == 0 || hits[0].ID != id || hits[0].Dist != 0 {
			rep.fail("added id %d not found at distance 0 (got %v)", id, hits)
		}
	}
	return lat, nil
}
