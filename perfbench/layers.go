package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"time"

	"dblsh"
	"dblsh/internal/core"
	"dblsh/internal/lsh"
	"dblsh/internal/rstar"
	"dblsh/internal/shard"
	"dblsh/internal/vec"
)

// The traced run measures each layer from outside: the benchmark builds the
// layer's own objects from the workload's inputs through their exported
// constructors and times its calls into them, recording a span around every
// call. Nothing inside the program is instrumented.

// tracedQueries caps how many of the workload's queries the traced run
// replays through every layer.
const tracedQueries = 400

// traceAdds caps the projected add rows inserted into a replica R*-tree.
const traceAdds = 1000

func traceInProcess(w workload, cfg runConfig, rep *report) error {
	in := generate(w, cfg.seed)
	tr := newTracer()
	if err := layerSuite(w, in, rep, tr); err != nil {
		return err
	}
	for _, name := range httpOnlyLayers {
		rep.setLayer(name.name, metricVal{Unit: name.unit, Note: "not on this workload's path"})
	}
	return tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed)))
}

// httpOnlyLayers are the per-layer metrics only the durable HTTP workload
// exercises; the in-process workloads report them as 0.
var httpOnlyLayers = []struct{ name, unit string }{
	{"dblsh.open_s", "s"}, {"dblsh.replay_us_per_record", "us"}, {"dblsh.checkpoint_s", "s"},
	{"dblsh.compact_s", "s"}, {"wal.append_us", "us"}, {"wal.sync_us", "us"},
	{"wal.write_bytes_per_user_byte", "ratio"}, {"server.overhead_ms", "ms"},
	{"server.shed_frac", "frac"}, {"loadgen.lag_p99_ms", "ms"},
}

// spanMedianUs returns the median duration, in µs, of the spans in [from,
// to) named name.
func spanMedianUs(tr *tracer, from, to int, name string) float64 {
	var xs []float64
	for _, s := range tr.spans[from:to] {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e3)
		}
	}
	return median(xs)
}

// layerSuite replays the workload's queries through the dblsh, shard, core,
// vec, lsh and rstar layers and reports their per-layer metrics.
func layerSuite(w workload, in inputs, rep *report, tr *tracer) error {
	n, d := in.data.Rows(), in.data.Dim()
	flat := in.data.Data()
	qs := rows(in.queries)
	if len(qs) > tracedQueries {
		qs = qs[:tracedQueries]
	}
	truth := groundTruth(in.data, qs, w.k, nil)
	ccfg := core.Config{Quantize: "on"}

	// dblsh over shard: the public entry point and the coordinator beneath
	// it, built from the same inputs. Three streams over the query set run
	// interleaved so slow spells of the machine hit all alike: SearchOpts
	// untraced, SearchOpts inside a span (the difference of the two medians
	// is the tracing overhead) and shard.Searcher.Search inside a span. The
	// streams are offset by a third of the set, so no call reuses the cache
	// lines the previous call of the same query left behind.
	idx, err := dblsh.NewFromFlat(flat, n, d, indexOptions(w))
	if err != nil {
		return err
	}
	set := shard.Build(flat, n, d, w.shards, 0, ccfg)
	s, sr := idx.NewSearcher(), set.NewSearcher()
	for _, q := range qs { // warm both searchers and the caches
		s.SearchOpts(q, w.k)
		sr.Search(q, w.k, core.QueryParams{})
	}
	apiHits := make([][]dblsh.Result, len(qs))
	shardHits := make([][]vec.Neighbor, len(qs))
	var untraced []float64
	var par, rounds int
	var straggler, wall int64
	from := len(tr.spans)
	nq := len(qs)
	for i := range qs {
		t0 := time.Now()
		s.SearchOpts(qs[i], w.k)
		untraced = append(untraced, us(time.Since(t0)))
		qi := (i + nq/3) % nq
		h := tr.begin("dblsh.SearchOpts", qi, -1)
		apiHits[qi], err = s.SearchOpts(qs[qi], w.k)
		tr.end(h)
		if err != nil {
			return err
		}
		qi = (i + 2*nq/3) % nq
		h = tr.begin("shard.Search", qi, -1)
		shardHits[qi], err = sr.Search(qs[qi], w.k, core.QueryParams{})
		tr.end(h)
		if err != nil {
			return err
		}
		st := sr.LastStats()
		par += st.ParallelRounds
		rounds += st.Rounds
		straggler += st.StragglerNanos
		wall += tr.spans[h].End - tr.spans[h].Start
	}
	for qi := range qs {
		rep.attempted++
		if !sameAnswer(apiHits[qi], shardHits[qi]) {
			rep.fail("query %d: dblsh and shard answers differ", qi)
		}
	}
	apiUs := spanMedianUs(tr, from, len(tr.spans), "dblsh.SearchOpts")
	shardUs := spanMedianUs(tr, from, len(tr.spans), "shard.Search")
	rep.setLayer("trace.overhead_frac", metricVal{Value: apiUs/median(untraced) - 1, Unit: "frac", N: len(qs),
		Note: fmt.Sprintf("traced %.2fus vs untraced %.2fus median SearchOpts", apiUs, median(untraced))})
	rep.setLayer("dblsh.api_overhead_us", metricVal{Value: apiUs - shardUs, Unit: "us", N: len(qs),
		Note: fmt.Sprintf("median dblsh.SearchOpts %.1fus - median shard.Searcher.Search %.1fus", apiUs, shardUs)})
	rep.setLayer("shard.search_us", metricVal{Value: shardUs, Unit: "us", N: len(qs)})
	rep.setLayer("shard.parallel_rounds_frac", metricVal{Value: float64(par) / float64(max(rounds, 1)), Unit: "frac", N: len(qs),
		Note: fmt.Sprintf("%d parallel rounds (sweeps included) / %d ladder rounds", par, rounds)})
	rep.setLayer("shard.straggler_frac", metricVal{Value: float64(straggler) / float64(max(wall, 1)), Unit: "frac", N: len(qs),
		Note: "StragglerNanos / query wall time"})
	idx, s, set, sr = nil, nil, nil, nil
	debug.FreeOSMemory()

	if w.shards > 1 {
		set1 := shard.Build(flat, n, d, 1, 0, ccfg)
		sr := set1.NewSearcher()
		for _, q := range qs { // warm
			sr.Search(q, w.k, core.QueryParams{})
		}
		from := len(tr.spans)
		for qi, q := range qs {
			h := tr.begin("shard.Search1", qi, -1)
			sr.Search(q, w.k, core.QueryParams{})
			tr.end(h)
		}
		one := spanMedianUs(tr, from, len(tr.spans), "shard.Search1")
		rep.setLayer("shard.tax", metricVal{Value: shardUs / one, Unit: "ratio", N: len(qs),
			Note: fmt.Sprintf("%d-shard %.1fus / 1-shard %.1fus median Search", w.shards, shardUs, one)})
		set1 = nil
		debug.FreeOSMemory()
	} else {
		rep.setLayer("shard.tax", metricVal{Value: 1, Unit: "ratio", Note: "1-shard workload: its own base"})
	}

	// core, vec, lsh, rstar: per-stripe replicas driven by the benchmark's
	// own round coordinator.
	return replicaLayers(w, in, qs, truth, shardHits, ccfg, tr, rep)
}

func sameAnswer(a []dblsh.Result, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// block is one verified candidate block a core searcher handed to the
// coordinator, kept for the verification replay.
type block struct {
	shard int
	ids   []int   // local ids
	bound float64 // the k-th best distance the kernel was bounded by
}

// replica is one shard's stripe with the layer objects the benchmark builds
// from it.
type replica struct {
	data   *vec.Matrix
	idx    *core.Index
	cs     *core.Searcher
	quant  *vec.QuantMatrix
	family *lsh.Family
	proj   []*vec.Matrix
	trees  []*rstar.Tree
	curs   []*rstar.Cursor
	qunits []float64
}

// buildReplicas stripes the corpus the way shard.Build does (row g goes to
// shard g mod S with seed base+S) and builds each stripe's core index, int8
// mirror, hash family, projections and R*-trees. Projection and bulk-load
// times are summed, one call at a time.
func buildReplicas(w workload, in inputs, ccfg core.Config) ([]*replica, core.Config, time.Duration, time.Duration) {
	n, d := in.data.Rows(), in.data.Dim()
	cfg := ccfg.Resolved(n)
	reps := make([]*replica, w.shards)
	var project, bulk time.Duration
	for i := range reps {
		var m *vec.Matrix
		if w.shards == 1 {
			m = in.data
		} else {
			m = vec.NewMatrix((n-i+w.shards-1)/w.shards, d)
			for j := 0; j < m.Rows(); j++ {
				m.SetRow(j, in.data.Row(j*w.shards+i))
			}
		}
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		c.InitialRadius = 0
		r := &replica{data: m, idx: core.Build(m, c), quant: vec.NewQuantMatrix(m)}
		r.cs = r.idx.NewSearcher()
		r.family = lsh.NewFamily(cfg.L, cfg.K, d, c.Seed)
		for t := 0; t < cfg.L; t++ {
			t0 := time.Now()
			p := r.family.Compound(t).Project(m)
			project += time.Since(t0)
			t0 = time.Now()
			tree := rstar.BulkLoad(p, rstar.Options{Quantize: true})
			bulk += time.Since(t0)
			r.proj = append(r.proj, p)
			r.trees = append(r.trees, tree)
			r.curs = append(r.curs, rstar.NewCursor(tree))
		}
		reps[i] = r
	}
	return reps, cfg, project, bulk
}

// ladderTrace is what one replayed query did.
type ladderTrace struct {
	hits       []vec.Neighbor
	radii      []float64 // ladder round radii, in order
	sweep      bool      // a final covering sweep ran
	candidates int
	blocks     []block
}

// ladder runs one query through the replicas with the benchmark's own copy
// of the shard coordinator's sequential round loop (Algorithm 2 with one
// merged top-k, one budget and one termination test), recording a span
// around every core call and around the benchmark's own emit callback.
func ladder(reps []*replica, cfg core.Config, q []float32, k, qi int, tr *tracer) ladderTrace {
	S := len(reps)
	budget := 2*cfg.T*cfg.L + k
	stopC := cfg.EarlyStopFactor * cfg.C
	r, live := math.Inf(1), 0
	for _, rp := range reps {
		r = math.Min(r, rp.idx.InitialRadius())
		live += rp.idx.Live()
	}
	root := tr.begin("query", qi, -1)
	for _, rp := range reps {
		h := tr.begin("core.Begin", qi, root)
		rp.cs.Begin(q)
		tr.end(h)
	}
	var lt ladderTrace
	cand := vec.NewTopK(k)
	cnt := 0
	var bound float64
	worst := func() float64 {
		bound = math.Inf(1)
		if w, full := cand.Worst(); full {
			bound = w
		}
		return bound
	}
	round := func(rad float64, sweep bool) (done, covered bool) {
		covered = !sweep
		for i, rp := range reps {
			if done {
				return true, false
			}
			parent := -1
			emit := func(ids []int, dists []float64) (int, bool) {
				h := tr.begin("bench.emit", qi, parent)
				defer tr.end(h)
				lt.blocks = append(lt.blocks, block{shard: i, ids: append([]int(nil), ids...), bound: bound})
				for j, id := range ids {
					cand.Push(id*S+i, dists[j])
					cnt++
					if cnt >= budget {
						done = true
						return j + 1, true
					}
					if w, full := cand.Worst(); !sweep && full && w <= stopC*rad {
						done = true
						return j + 1, true
					}
				}
				return len(ids), false
			}
			if sweep {
				parent = tr.begin("core.Sweep", qi, root)
				rp.cs.Sweep(q, nil, worst, emit)
				tr.end(parent)
				continue
			}
			parent = tr.begin("core.RunRound", qi, root)
			rp.cs.RunRound(q, rad, nil, worst, emit)
			tr.end(parent)
			covered = covered && !done && rp.cs.Covers(rad*cfg.C)
		}
		return done, covered
	}
	for {
		lt.radii = append(lt.radii, r)
		done, covered := round(r, false)
		if done {
			break
		}
		if w, full := cand.Worst(); full && w <= stopC*r {
			break
		}
		if cnt >= live {
			break
		}
		r *= cfg.C
		if covered {
			lt.sweep = true
			round(r, true)
			break
		}
	}
	tr.end(root)
	lt.hits = cand.Results()
	lt.candidates = cnt
	return lt
}

// replicaLayers drives every query through the replicas and replays its
// verification and traversal work against the vec and rstar layers.
func replicaLayers(w workload, in inputs, qs [][]float32, truth, want [][]vec.Neighbor, ccfg core.Config, tr *tracer, rep *report) error {
	reps, cfg, project, bulk := buildReplicas(w, in, ccfg)
	rep.setLayer("lsh.build_project_s", metricVal{Value: project.Seconds(), Unit: "s", N: len(reps) * cfg.L, Note: "sum of Compound.Project calls, one at a time"})
	rep.setLayer("rstar.bulkload_s", metricVal{Value: bulk.Seconds(), Unit: "s", N: len(reps) * cfg.L, Note: "sum of BulkLoad calls, one at a time"})

	from := len(tr.spans)
	var rounds, cands, found, rowsVerified, pruned, swept, nodes, emitted int
	var verifyUs, traverseUs, projectUs []float64
	out := make([]float32, 0, cfg.K)
	dists := make([]float64, 64)
	ebuf := make([]int32, 256)
	for qi, q := range qs {
		lt := ladder(reps, cfg, q, w.k, qi, tr)
		rounds += len(lt.radii)
		cands += lt.candidates
		rep.attempted++
		if !sameNeighbors(lt.hits, want[qi]) {
			rep.fail("query %d: the replayed ladder disagrees with shard.Search", qi)
		}
		for _, rp := range reps {
			st := rp.cs.LastStats()
			pruned += st.QuantPruned
			swept += st.QuantSwept
		}
		var qa quality
		qa.add(toResults(lt.hits), truth[qi], w.k)
		found += qa.hits

		// vec: the exact blocks this query verified, through the same
		// bounded kernels (the int8 pre-filter first whenever the bound is
		// finite, as the engine does while its adaptive gate is closed).
		for _, rp := range reps {
			rp.qunits = rp.quant.QuantizeQueryUnits(q, rp.qunits)
		}
		h := tr.begin("vec.verify", qi, -1)
		for _, b := range lt.blocks {
			rp := reps[b.shard]
			if cap(dists) < len(b.ids) {
				dists = make([]float64, len(b.ids))
			}
			ds := dists[:len(b.ids)]
			if math.IsInf(b.bound, 1) {
				vec.SquaredDistsToBounded(q, rp.data, b.ids, math.Inf(1), ds)
			} else {
				vec.SquaredDistsToBoundedQuant(q, rp.qunits, rp.data, rp.quant, b.ids, b.bound*b.bound, ds)
			}
			rowsVerified += len(b.ids)
		}
		tr.end(h)
		verifyUs = append(verifyUs, float64(tr.spans[h].End-tr.spans[h].Start)/1e3)

		// lsh then rstar: hash the query into every projected space, then
		// walk each tree's shells at the radii the ladder visited.
		h = tr.begin("lsh.Hash", qi, -1)
		hashes := make([][]float32, 0, len(reps)*cfg.L)
		for _, rp := range reps {
			for t := 0; t < cfg.L; t++ {
				out = rp.family.Compound(t).Hash(out[:0], q)
				hashes = append(hashes, append([]float32(nil), out...))
			}
		}
		tr.end(h)
		projectUs = append(projectUs, float64(tr.spans[h].End-tr.spans[h].Start)/1e3)
		h = tr.begin("rstar.traverse", qi, -1)
		for i, rp := range reps {
			for t, cur := range rp.curs {
				cur.Reset(hashes[i*cfg.L+t])
				walk := func(half float64) {
					cur.BeginRound(half)
					for m := cur.NextBatch(ebuf); m > 0; m = cur.NextBatch(ebuf) {
						emitted += m
					}
					cur.EndRound()
				}
				for _, rad := range lt.radii {
					walk(cfg.W0 * rad / 2)
				}
				if lt.sweep && t == 0 {
					walk(math.Inf(1))
				}
				nodes += cur.NodesVisited()
			}
		}
		tr.end(h)
		traverseUs = append(traverseUs, float64(tr.spans[h].End-tr.spans[h].Start)/1e3)
	}
	nq := float64(len(qs))
	self := selfTimes(tr.spans)[from:] // parents index the whole span list
	spans := tr.spans[from:]
	rep.setLayer("core.begin_us", metricVal{Value: median(perQuerySelf(spans, self, "core.Begin")), Unit: "us", N: len(qs), Note: "median per query, all shards"})
	rep.setLayer("core.round_us", metricVal{Value: median(perQuerySelf(spans, self, "core.RunRound", "core.Sweep")), Unit: "us", N: len(qs), Note: "median per query of RunRound+Sweep self time, emit callback excluded"})
	rep.setLayer("core.rounds_per_query", metricVal{Value: float64(rounds) / nq, Unit: "count", N: len(qs)})
	rep.setLayer("core.candidates_per_query", metricVal{Value: float64(cands) / nq, Unit: "count", N: len(qs)})
	rep.setLayer("core.candidates_per_hit", metricVal{Value: float64(cands) / float64(max(found, 1)), Unit: "ratio", N: len(qs),
		Note: fmt.Sprintf("%d candidates / %d true neighbors found", cands, found)})
	rep.setLayer("vec.verify_us", metricVal{Value: median(verifyUs), Unit: "us", N: len(qs), Note: "median per query, replayed blocks"})
	rep.setLayer("vec.quant_prune_frac", metricVal{Value: float64(pruned) / float64(max(swept, 1)), Unit: "frac", N: len(qs),
		Note: fmt.Sprintf("QuantPruned %d / QuantSwept %d", pruned, swept)})
	rep.setLayer("vec.rows_verified_per_query", metricVal{Value: float64(rowsVerified) / nq, Unit: "count", N: len(qs)})
	rep.setLayer("lsh.project_us", metricVal{Value: median(projectUs), Unit: "us", N: len(qs), Note: "hash one query into every shard's L spaces"})
	rep.setLayer("rstar.traverse_us", metricVal{Value: median(traverseUs), Unit: "us", N: len(qs), Note: "median per query, full shells at the ladder's radii"})
	rep.setLayer("rstar.nodes_per_query", metricVal{Value: float64(nodes) / nq, Unit: "count", N: len(qs)})
	rep.setLayer("rstar.emitted_per_node", metricVal{Value: float64(emitted) / float64(max(nodes, 1)), Unit: "ratio", N: len(qs),
		Note: fmt.Sprintf("%d ids emitted / %d nodes visited", emitted, nodes)})

	// rstar inserts: project held-out rows into shard 0's first space and
	// insert them into its replica tree.
	rp := reps[0]
	var ins []float64
	for i := 0; i < min(in.adds.Rows(), traceAdds); i++ {
		out = rp.family.Compound(0).Hash(out[:0], in.adds.Row(i))
		id := rp.proj[0].Append(out)
		h := tr.begin("rstar.Insert", i, -1)
		rp.trees[0].Insert(id)
		tr.end(h)
		ins = append(ins, float64(tr.spans[h].End-tr.spans[h].Start)/1e3)
	}
	rep.setLayer("rstar.insert_us", metricVal{Value: median(ins), Unit: "us", N: len(ins)})
	return nil
}

func sameNeighbors(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func toResults(nbs []vec.Neighbor) []dblsh.Result {
	out := make([]dblsh.Result, len(nbs))
	for i, nb := range nbs {
		out[i] = dblsh.Result{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}
