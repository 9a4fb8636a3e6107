package core

import (
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/rstar"
	"dblsh/internal/vec"
)

// The window re-scan oracle: Algorithm 2's literal formulation, in which
// every round runs each window query root-to-leaf, re-walking the
// already-covered region and relying on the visited stamps to skip
// re-verification. RunRound and Sweep must verify the same candidates in
// the same order; the equivalence tests and fuzzers below compare the two.

// verifyBlockHot is the oracle's gather size once the caller's top-k heap is
// full. The re-scan has no way to hand back over-gathered candidates, so a
// stop can fire at any flush and every fresh candidate gathered past it is
// traversal wasted (late-round windows are dense with already-visited
// points); the cursors never need this, since a stop mid-block hands the
// unconsumed tail back to their frontiers exactly.
const verifyBlockHot = 2

// blockLimit picks the gather size for the oracle's next block: full-size
// while the caller's heap is still filling (no stop can fire),
// verifyBlockHot once it is full.
func (s *Searcher) blockLimit(worst func() float64) int {
	if worst != nil && !math.IsInf(worst(), 1) {
		return verifyBlockHot
	}
	return verifyBlockSize
}

// runWindowsRescan is RunRound's re-scan formulation.
func (s *Searcher) runWindowsRescan(q []float32, r float64, filter func(int) bool, worst func() float64, emit emitFunc) {
	s.ensureStamps()
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	for i, tr := range s.idx.trees {
		if !s.rescanWindow(tr, rstar.WindowRect(s.qhash[i], s.idx.cfg.W0*r), q, filter, worst, emit) {
			return
		}
	}
	s.flushBlock(q, worst, emit)
}

// sweepRescan is Sweep's re-scan formulation: one window over the first
// tree's whole bounding box.
func (s *Searcher) sweepRescan(q []float32, filter func(int) bool, worst func() float64, emit emitFunc) {
	if s.idx.data.Rows() == 0 {
		return
	}
	s.ensureStamps()
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	tr := s.idx.trees[0]
	if s.rescanWindow(tr, tr.Bounds(), q, filter, worst, emit) {
		s.flushBlock(q, worst, emit)
	}
}

// rescanWindow gathers window w's unvisited, live, filter-passing points
// into the verification block, flushing at blockLimit. It returns false
// when a flush stopped the traversal.
func (s *Searcher) rescanWindow(tr *rstar.Tree, w rstar.Rect, q []float32, filter func(int) bool, worst func() float64, emit emitFunc) bool {
	aborted := false
	limit := s.blockLimit(worst)
	s.last.NodesVisited += tr.WindowVisits(w, func(id int) bool {
		if s.visited[id] == s.epoch {
			return true
		}
		s.visited[id] = s.epoch
		if s.idx.isDeleted(id) {
			return true
		}
		if filter != nil && !filter(id) {
			return true
		}
		s.bids = append(s.bids, id)
		if len(s.bids) >= limit {
			if !s.flushBlock(q, worst, emit) {
				aborted = true
				return false
			}
			limit = s.blockLimit(worst)
		}
		return true
	})
	return !aborted
}

// ladderQuery answers a (c,k)-ANN query on one index with a test-only copy
// of Algorithm 2's radius ladder — the loop the shard coordinator runs at
// one shard — driving each round through the production cursors (RunRound,
// Sweep) or, with rescan, through the window re-scan oracle. The returned
// stats carry the ladder's candidate count, round count and final radius
// alongside the searcher's traversal counters.
func ladderQuery(s *Searcher, q []float32, k int, p QueryParams, rescan bool) ([]vec.Neighbor, Stats, error) {
	idx := s.idx
	if p.Cancelled() {
		return nil, Stats{}, p.Ctx.Err()
	}
	if idx.data.Rows() == 0 {
		return nil, Stats{}, nil
	}
	s.Begin(q)
	t, stopFactor := p.Resolve(idx.cfg)
	budget := 2*t*idx.cfg.L + k
	stopC := stopFactor * idx.cfg.C
	live := idx.Live()
	cand := vec.NewTopK(k)
	var st Stats
	cnt, done := 0, false
	worst := func() float64 {
		if w, full := cand.Worst(); full {
			return w
		}
		return math.Inf(1)
	}
	emit := func(r float64, sweep bool) emitFunc {
		return func(ids []int, dists []float64) (int, bool) {
			for j, id := range ids {
				cand.Push(id, dists[j])
				cnt++
				if cnt >= budget {
					done = true
					return j + 1, true
				}
				if w, full := cand.Worst(); !sweep && full && w <= stopC*r {
					done = true
					return j + 1, true
				}
			}
			return len(ids), false
		}
	}
	finish := func(err error) ([]vec.Neighbor, Stats, error) {
		last := s.LastStats()
		last.Candidates, last.Rounds, last.FinalR = cnt, st.Rounds, st.FinalR
		return cand.Results(), last, err
	}
	for r := idx.r0; ; {
		if p.MaxRadius > 0 && r > p.MaxRadius {
			break
		}
		if p.Cancelled() {
			return finish(p.Ctx.Err())
		}
		st.Rounds++
		if rescan {
			s.runWindowsRescan(q, r, p.Filter, worst, emit(r, false))
		} else {
			s.RunRound(q, r, p.Filter, worst, emit(r, false))
		}
		st.FinalR = r
		if done {
			break
		}
		if w, full := cand.Worst(); full && w <= stopC*r {
			break
		}
		if cnt >= live {
			break
		}
		r *= idx.cfg.C
		if p.MaxRadius > 0 && r > p.MaxRadius {
			break
		}
		if s.Covers(r) {
			if rescan {
				s.sweepRescan(q, p.Filter, worst, emit(r, true))
			} else {
				s.Sweep(q, p.Filter, worst, emit(r, true))
			}
			break
		}
	}
	return finish(nil)
}

// ladderIndex builds a small random index for the differential tests.
func ladderIndex(seed int64, n, d int) (*Index, *vec.Matrix, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	data := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			data.Row(i)[j] = float32(rng.NormFloat64() * 8)
		}
	}
	idx := Build(data, Config{C: 1.5, K: 5, L: 3, T: 12, Seed: seed})
	return idx, data, rng
}

// diffOneQuery runs one (c,k)-ANN query through both traversals and fails
// if anything observable differs: ids, distances, candidate count, round
// count, final radius, or the returned error.
func diffOneQuery(t *testing.T, idx *Index, q []float32, k int, p QueryParams) {
	t.Helper()
	got, gst, gerr := ladderQuery(idx.NewSearcher(), q, k, p, false)
	want, wst, werr := ladderQuery(idx.NewSearcher(), q, k, p, true)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("error mismatch: cursor %v, rescan %v", gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("result count mismatch: cursor %d, rescan %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d mismatch: cursor %+v, rescan %+v", i, got[i], want[i])
		}
	}
	if gst.Candidates != wst.Candidates {
		t.Fatalf("candidate count mismatch: cursor %d, rescan %d", gst.Candidates, wst.Candidates)
	}
	if gst.Rounds != wst.Rounds {
		t.Fatalf("round count mismatch: cursor %d, rescan %d", gst.Rounds, wst.Rounds)
	}
	if gst.FinalR != wst.FinalR {
		t.Fatalf("final radius mismatch: cursor %v, rescan %v", gst.FinalR, wst.FinalR)
	}
}

// TestLadderEquivalence is the differential property test of the
// traversal rework: across random datasets, ks, filters, deletes and
// per-query overrides, the cursor ladder must answer every query exactly
// like the window re-scan ladder — same neighbors, same distances, same
// candidate and round counts.
func TestLadderEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 150 + int(seed%5)*80
		idx, data, rng := ladderIndex(seed, n, 6)

		// A random subset of deletes.
		for i := 0; i < n/10; i++ {
			idx.Delete(rng.Intn(n))
		}

		for trial := 0; trial < 4; trial++ {
			q := make([]float32, data.Dim())
			for j := range q {
				q[j] = float32(rng.NormFloat64() * 8)
			}
			k := 1 + rng.Intn(20)
			var p QueryParams
			switch trial {
			case 1:
				p.T = 1 + rng.Intn(5) // tight budget: mid-block stops
			case 2:
				mod := 2 + rng.Intn(3)
				p.Filter = func(id int) bool { return id%mod == 0 }
			case 3:
				p.EarlyStopFactor = 1 + rng.Float64()*2
				p.MaxRadius = 0.5 + rng.Float64()*20
			}
			diffOneQuery(t, idx, q, k, p)
		}
	}
}

// TestLadderEquivalenceSelfQueries hits the exact-match path (distance 0
// candidates, immediate termination tests) which stresses stop handling
// at block boundaries.
func TestLadderEquivalenceSelfQueries(t *testing.T) {
	idx, data, _ := ladderIndex(42, 300, 5)
	for i := 0; i < 25; i++ {
		diffOneQuery(t, idx, data.Row(i*7%300), 1+i%10, QueryParams{})
	}
}

// roundFunc is one round of either traversal: RunRound or the oracle.
type roundFunc = func(s *Searcher, q []float32, r float64, filter func(int) bool, worst func() float64, emit emitFunc)

// TestCursorReArmMidQuery pins the mutate-during-query contract
// deterministically: a round-coordinated query paused between rounds (the
// shard coordinator's interleaving) observes points inserted in the pause
// through the explicit re-arm path, exactly as the window re-scan would.
func TestCursorReArmMidQuery(t *testing.T) {
	idx, data, _ := ladderIndex(5, 200, 4)
	q := make([]float32, data.Dim()) // query at the origin

	run := func(s *Searcher, round roundFunc, r float64, seen map[int]bool) {
		emit := func(ids []int, dists []float64) (int, bool) {
			for _, id := range ids {
				seen[id] = true
			}
			return len(ids), false
		}
		round(s, q, r, nil, nil, emit)
	}

	cs := idx.NewSearcher()
	rs := idx.NewSearcher()
	cursor, rescan := (*Searcher).RunRound, (*Searcher).runWindowsRescan
	cseen := map[int]bool{}
	rseen := map[int]bool{}
	cs.Begin(q)
	rs.Begin(q)
	run(cs, cursor, 1.0, cseen)
	run(rs, rescan, 1.0, rseen)

	// Pause: a point lands exactly at the query. Both traversals must pick
	// it up in the next round.
	newID := idx.Insert(make([]float32, data.Dim()))
	if cs.CursorReArms() != 0 {
		t.Fatal("cursor re-armed before any mutation")
	}
	run(cs, cursor, 2.0, cseen)
	run(rs, rescan, 2.0, rseen)
	if cs.CursorReArms() != idx.cfg.L {
		t.Fatalf("expected %d cursor re-arms (one per tree), got %d", idx.cfg.L, cs.CursorReArms())
	}
	if !cseen[newID] {
		t.Fatal("cursor ladder missed the point inserted mid-query")
	}
	if !rseen[newID] {
		t.Fatal("re-scan ladder missed the point inserted mid-query")
	}
	if len(cseen) != len(rseen) {
		t.Fatalf("traversals diverged after mid-query insert: cursor saw %d, re-scan %d", len(cseen), len(rseen))
	}
	for id := range rseen {
		if !cseen[id] {
			t.Fatalf("cursor ladder missed id %d the re-scan reported", id)
		}
	}
}

// TestTraversalZeroAllocs pins the pooling contract: once warm, the
// round-coordinated traversal (Begin + RunRound + Covers + Sweep)
// allocates nothing per query.
func TestTraversalZeroAllocs(t *testing.T) {
	idx, data, _ := ladderIndex(3, 2000, 6)
	s := idx.NewSearcher()
	q := data.Row(1)
	emit := func(ids []int, dists []float64) (int, bool) { return len(ids), false }
	worst := func() float64 { return math.Inf(1) }
	query := func() {
		s.Begin(q)
		r := idx.InitialRadius()
		for round := 0; round < 6; round++ {
			s.RunRound(q, r, nil, worst, emit)
			if s.Covers(r) {
				break
			}
			r *= idx.cfg.C
		}
		s.Sweep(q, nil, worst, emit)
	}
	query() // warm buffers
	if allocs := testing.AllocsPerRun(50, query); allocs != 0 {
		t.Fatalf("traversal allocates %v times per query, want 0", allocs)
	}
}

// TestWideTreePanics covers the configuration the cursor bitmasks cannot
// represent (MaxEntries > 64): Build refuses it outright.
func TestWideTreePanics(t *testing.T) {
	data := vec.NewMatrix(300, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted MaxEntries = 128")
		}
	}()
	Build(data, Config{C: 1.5, K: 4, L: 2, T: 20, Seed: 2, Tree: rstar.Options{MaxEntries: 128}})
}

// FuzzLadderEquivalence drives the cursor/re-scan differential with
// fuzzer-chosen datasets, queries, k, budgets, filters and deletes.
func FuzzLadderEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(1), uint8(3), uint8(2), true)
	f.Add(int64(99), uint8(20), uint8(1), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, kRaw, tRaw, delRaw uint8, filter bool) {
		n := 120
		idx, data, rng := ladderIndex(seed, n, 4)
		for i := 0; i < int(delRaw)%40; i++ {
			idx.Delete(rng.Intn(n))
		}
		q := make([]float32, data.Dim())
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 8)
		}
		p := QueryParams{T: int(tRaw) % 8}
		if filter {
			p.Filter = func(id int) bool { return id%3 != 1 }
		}
		k := 1 + int(kRaw)%25
		diffOneQuery(t, idx, q, k, p)
	})
}
