package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dblsh"
	"dblsh/internal/wal"
)

// walProbeRecords is how many add records the WAL probe appends and syncs.
const walProbeRecords = 300

// traceHTTP is the traced run of the durable HTTP workload: the same load
// with a span around every request, then the layers only this workload
// reaches (server, durability, WAL), then the in-process layer suite on the
// same corpus and shard count.
func traceHTTP(w workload, cfg runConfig, rep *report) error {
	tr := newTracer()
	run, err := driveHTTP(w, cfg, rep, tr)
	if err != nil {
		return err
	}

	// The generator's lag is taken over the steps up to the reference rate;
	// beyond it the server is overloaded on purpose and requests queue for a
	// free connection.
	var lags []float64
	shed := 0
	for _, r := range run.ops {
		if r.rate <= referenceRate {
			lags = append(lags, r.sample.lag())
		}
		if r.status == 429 {
			shed++
		}
	}
	lag := summarize(lags, 99)
	rep.setLayer("loadgen.lag_p99_ms", metricVal{Value: lag.Tail, Unit: "ms", N: lag.N, At: lag.TailAt,
		Note: fmt.Sprintf("send time - due time up to %g req/s; a validity check on the run", referenceRate)})
	rep.setLayer("server.shed_frac", metricVal{Value: float64(shed) / float64(max(len(run.ops), 1)), Unit: "frac", N: len(run.ops), Note: "429 answers / load requests"})
	rep.setLayer("wal.write_bytes_per_user_byte", metricVal{Value: float64(run.writeBytes) / float64(max(run.userBytes, 1)), Unit: "ratio",
		Note: fmt.Sprintf("server write_bytes %d / added vector bytes %d", run.writeBytes, run.userBytes)})

	if err := serverOverhead(w, run, rep, tr); err != nil {
		return err
	}
	if err := durableLayers(run, cfg, rep, tr); err != nil {
		return err
	}
	if err := walLayer(run, cfg, rep, tr); err != nil {
		return err
	}
	if err := layerSuite(w, run.in, rep, tr); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed)))
}

// serverOverhead opens the directory the server left behind (every
// acknowledged mutation, the index state the post-load HTTP searches saw)
// in process, and times the same queries through SearchOpts.
func serverOverhead(w workload, run *httpRun, rep *report, tr *tracer) error {
	idx, err := dblsh.Open(run.dir, dblsh.Options{Sync: dblsh.SyncNever})
	if err != nil {
		return err
	}
	defer idx.Close()
	qs := rows(run.in.queries)[:len(run.recallMs)]
	s := idx.NewSearcher()
	var local []float64
	for pass := 0; pass < 2; pass++ { // the first pass warms the searcher
		local = local[:0]
		for qi, q := range qs {
			h := tr.begin("dblsh.SearchOpts", qi, -1)
			_, err := s.SearchOpts(q, w.k)
			tr.end(h)
			if err != nil {
				return err
			}
			local = append(local, float64(tr.spans[h].End-tr.spans[h].Start)/1e6)
		}
	}
	rep.setLayer("server.overhead_ms", metricVal{Value: median(run.recallMs) - median(local), Unit: "ms", N: len(qs),
		Note: fmt.Sprintf("median HTTP /search %.3fms - median in-process SearchOpts %.3fms", median(run.recallMs), median(local))})
	return nil
}

// durableLayers times Open on the prepared store with and without its WAL
// tail (the difference is replay), then Checkpoint and a one-shard
// compaction on the opened store.
func durableLayers(run *httpRun, cfg runConfig, rep *report, tr *tracer) error {
	probe := filepath.Join(cfg.work, "open-probe")
	defer os.RemoveAll(probe)
	open := func(src, name string) (*dblsh.Index, time.Duration, error) {
		if err := copyDir(src, probe); err != nil {
			return nil, 0, err
		}
		h := tr.begin(name, 0, -1)
		idx, err := dblsh.Open(probe, dblsh.Options{Sync: dblsh.SyncNever})
		tr.end(h)
		return idx, time.Duration(tr.spans[h].End - tr.spans[h].Start), err
	}
	idx, ckptOnly, err := open(run.st.ckpt, "dblsh.Open.checkpoint")
	if err != nil {
		return err
	}
	if err := idx.Close(); err != nil {
		return err
	}
	idx, full, err := open(run.st.full, "dblsh.Open")
	if err != nil {
		return err
	}
	defer idx.Close()
	rep.setLayer("dblsh.open_s", metricVal{Value: full.Seconds(), Unit: "s", Note: fmt.Sprintf("checkpoint + %d-record WAL tail", walTail)})
	rep.setLayer("dblsh.replay_us_per_record", metricVal{Value: us(full-ckptOnly) / walTail, Unit: "us", N: walTail,
		Note: fmt.Sprintf("(Open with tail %.3fs - checkpoint only %.3fs) / %d records", full.Seconds(), ckptOnly.Seconds(), walTail)})

	h := tr.begin("dblsh.Checkpoint", 0, -1)
	err = idx.Checkpoint()
	tr.end(h)
	if err != nil {
		return err
	}
	rep.setLayer("dblsh.checkpoint_s", metricVal{Value: float64(tr.spans[h].End-tr.spans[h].Start) / 1e9, Unit: "s", Note: "WAL tail pending"})

	// Tombstone 2% of shard 0 (ids ≡ 0 mod shards), then compact it.
	shards := idx.Shards()
	for id := 0; id < run.in.data.Rows(); id += shards * 50 {
		idx.Delete(id)
	}
	h = tr.begin("dblsh.CompactShard", 0, -1)
	_, err = idx.CompactShard(0)
	tr.end(h)
	if err != nil {
		return err
	}
	rep.setLayer("dblsh.compact_s", metricVal{Value: float64(tr.spans[h].End-tr.spans[h].Start) / 1e9, Unit: "s", Note: "one shard, 2% tombstoned"})
	return nil
}

// walLayer appends add records of the workload's shape to a fresh log and
// syncs after each, as the server does under SyncAlways.
func walLayer(run *httpRun, cfg runConfig, rep *report, tr *tracer) error {
	path := filepath.Join(cfg.work, "wal-probe.log")
	defer os.Remove(path)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	wr, err := wal.OpenWriter(path, 0)
	if err != nil {
		return err
	}
	var app, syn []float64
	for i := 0; i < min(walProbeRecords, run.in.adds.Rows()); i++ {
		rec := wal.Record{Op: wal.OpAdd, ID: uint64(run.in.data.Rows() + i), Row: run.in.adds.Row(i)}
		h := tr.begin("wal.Append", i, -1)
		err := wr.Append(rec)
		tr.end(h)
		if err != nil {
			// dblsh:ignore-err the probe log is scratch; the append error is reported
			wr.Close()
			return err
		}
		app = append(app, float64(tr.spans[h].End-tr.spans[h].Start)/1e3)
		h = tr.begin("wal.Sync", i, -1)
		err = wr.Sync()
		tr.end(h)
		if err != nil {
			// dblsh:ignore-err the probe log is scratch; the sync error is reported
			wr.Close()
			return err
		}
		syn = append(syn, float64(tr.spans[h].End-tr.spans[h].Start)/1e3)
	}
	rep.setLayer("wal.append_us", metricVal{Value: median(app), Unit: "us", N: len(app)})
	rep.setLayer("wal.sync_us", metricVal{Value: median(syn), Unit: "us", N: len(syn)})
	return wr.Close()
}
