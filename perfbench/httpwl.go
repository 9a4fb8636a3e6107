package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dblsh"
	"dblsh/internal/vec"
)

// The durable HTTP workload's fixed settings.
const (
	walTail      = 300    // un-checkpointed add records the prepared store carries
	ckptEvery    = "4s"   // server checkpoint cadence: several per run
	compactFrac  = 0.0012 // per-shard tombstone share that triggers a compaction
	limitMs      = 100.0  // search tail-latency limit that sustained_qps must meet
	searchShare  = 0.80
	addShare     = 0.15 // the rest are deletes of ids added earlier in the run
	httpTimeout  = 10 * time.Second
	readyTimeout = 60 * time.Second
)

// offeredSteps are the open loop's fixed rates in requests per second, run
// in this order, each for its share of the load phase. Search latency is
// reported at referenceRate, which gets the longest share so its tail rests
// on the most samples.
var (
	offeredSteps  = []struct{ rate, share float64 }{{100, 0.6}, {200, 0.25}, {800, 0.15}}
	referenceRate = 100.0
)

// serverProc is a running dblsh-server child.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
}

// startServer launches the server on dataDir and waits for its first ready
// /healthz, returning the time from launch to ready.
func startServer(cfg runConfig, dataDir string) (*serverProc, time.Duration, error) {
	if cfg.server == "" {
		return nil, 0, errors.New("no -server binary given")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(cfg.work, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(cfg.server,
		"-addr", addr, "-data-dir", dataDir, "-sync", "always",
		"-checkpoint-every", ckptEvery, "-compact-fraction", strconv.FormatFloat(compactFrac, 'g', -1, 64),
		"-parallelism", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, whatever way it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, log: logf}
	client := &http.Client{Timeout: time.Second}
	for time.Since(t0) < readyTimeout {
		resp, err := client.Get(sp.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, time.Since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	sp.stop()
	return nil, 0, fmt.Errorf("server not ready after %v (see %s)", readyTimeout, logf.Name())
}

// stop asks the server to shut down (it flushes its log on SIGTERM) and
// waits for it to exit, killing it if it does not.
func (sp *serverProc) stop() error {
	defer sp.log.Close()
	sp.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- sp.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		sp.cmd.Process.Kill()
		<-done
		return errors.New("server did not stop on SIGTERM")
	}
}

// procField reads a numeric "key: value" field from /proc/<pid>/<file>.
func procField(pid int, file, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == key {
			fs := strings.Fields(v)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseInt(fs[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/%s", key, pid, file)
}

// sampleRSS samples the server's VmRSS (KiB) every 50ms until stop closes,
// then sends the samples: the Go heap breathes with each collection, so
// one reading would say more about GC timing than about the index.
func sampleRSS(pid int, stop <-chan struct{}, out chan<- []float64) {
	var xs []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if kib, err := procField(pid, "status", "VmRSS"); err == nil {
			xs = append(xs, float64(kib))
		}
		select {
		case <-stop:
			out <- xs
			return
		case <-tick.C:
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// store is the prepared durable store: ckpt holds the checkpoint alone, full
// the checkpoint plus walTail logged adds (ids N … N+walTail-1, rows
// adds[0:walTail]).
type store struct{ ckpt, full string }

// prepareStore writes the workload's corpus as a checkpoint and appends the
// fixed WAL tail without checkpointing it. It is set-up of the inputs, not
// of the system, and is not timed.
func prepareStore(w workload, in inputs, work string) (store, error) {
	st := store{ckpt: filepath.Join(work, "store-ckpt"), full: filepath.Join(work, "store-full")}
	for _, d := range []string{st.ckpt, st.full} {
		if err := os.RemoveAll(d); err != nil {
			return st, err
		}
	}
	idx, err := dblsh.NewFromFlat(in.data.Data(), in.data.Rows(), in.data.Dim(), indexOptions(w))
	if err != nil {
		return st, err
	}
	if err := idx.Save(st.ckpt); err != nil {
		return st, err
	}
	if err := copyDir(st.ckpt, st.full); err != nil {
		return st, err
	}
	d, err := dblsh.Open(st.full, dblsh.Options{Sync: dblsh.SyncNever})
	if err != nil {
		return st, err
	}
	for i := 0; i < walTail; i++ {
		if _, err := d.Add(in.adds.Row(i)); err != nil {
			d.Close()
			return st, err
		}
	}
	return st, d.Close()
}

// httpClient is one connection's client: the open loop gives every worker
// its own connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout:   httpTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

type searchReq struct {
	Vector    []float32 `json:"vector"`
	K         int       `json:"k"`
	T         int       `json:"t,omitempty"`
	FilterIDs []int     `json:"filter_ids,omitempty"`
}

type searchResp struct {
	Results []dblsh.Result `json:"results"`
}

// post sends body as JSON and decodes a 200 answer into out. A non-200
// status is returned as an error carrying the code.
func post(c *http.Client, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("%s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

type opKind int

const (
	opSearch opKind = iota
	opAdd
	opDelete
)

// op is one scheduled request of the open loop.
type op struct {
	kind opKind
	due  time.Duration
	seq  int     // position in the load phase; the op's spans carry it
	rate float64 // offered rate of the op's step
	row  int     // query index (search) or add-pool row (add)
	id   int     // id to delete
}

// opResult is a completed op.
type opResult struct {
	op
	sample openLoopSample
	status int
	hits   []dblsh.Result // search answer
	ok     bool           // delete answered deleted:true
	err    error
}

// mixState is the live set as the benchmark tracks it from acknowledged
// mutations.
type mixState struct {
	mu        sync.Mutex
	n         int           // corpus rows (ids below n)
	addedRow  map[int]int   // id → adds-pool row, for every acknowledged add
	ackAdds   []int         // acknowledged added ids not yet picked for deletion
	deletedAt map[int]int64 // id → ns (since the load start) its delete was acknowledged
	nextRow   int           // next unused adds-pool row
}

// rowOf returns the vector behind an id the benchmark knows of.
func (mix *mixState) rowOf(in inputs) func(int) ([]float32, bool) {
	return func(id int) ([]float32, bool) {
		if id >= 0 && id < mix.n {
			return in.data.Row(id), true
		}
		mix.mu.Lock()
		r, ok := mix.addedRow[id]
		mix.mu.Unlock()
		if !ok {
			return nil, false
		}
		return in.adds.Row(r), true
	}
}

// loadPhase drives the open loop over offeredSteps. Every request is timed
// from its due time. Searches and mutations each get their own connections
// (GOMAXPROCS in all, at least one each), so a mutation stalled in fsync
// delays later mutations but not the searches of other users; a request
// due while every connection of its class is busy waits for one to free.
func loadPhase(sp *serverProc, w workload, in inputs, mix *mixState, seed int64, seconds float64, tr *tracer) ([]rateStep, []opResult) {
	mutConns := max(1, runtime.GOMAXPROCS(0)/2)
	searchConns := max(1, runtime.GOMAXPROCS(0)-mutConns)
	rng := rand.New(rand.NewSource(seed))
	var steps []rateStep
	var all []opResult
	loadStart := time.Now()
	for _, step := range offeredSteps {
		rate := step.rate
		total := int(rate * seconds * step.share)
		// Each queue holds every op of the step, so the generator never
		// blocks: an op waits in its queue for a connection, not in the
		// generator.
		searches, mutations := make(chan op, total), make(chan op, total)
		results := make(chan opResult, total)
		var wg sync.WaitGroup
		stepStart := time.Now()
		serve := func(jobs <-chan op) {
			defer wg.Done()
			client := httpClient()
			for o := range jobs {
				results <- doOp(client, sp, w, in, mix, o, stepStart, loadStart, tr)
			}
			client.CloseIdleConnections()
		}
		for c := 0; c < searchConns; c++ {
			wg.Add(1)
			go serve(searches)
		}
		for c := 0; c < mutConns; c++ {
			wg.Add(1)
			go serve(mutations)
		}
		for i := 0; i < total; i++ {
			due := time.Duration(float64(i) / rate * float64(time.Second))
			if d := time.Until(stepStart.Add(due)); d > 0 {
				time.Sleep(d)
			}
			o := pickOp(rng, mix, in, due)
			o.seq, o.rate = len(all)+i, rate
			if o.kind == opSearch {
				searches <- o
			} else {
				mutations <- o
			}
		}
		close(searches)
		close(mutations)
		wg.Wait()
		close(results)
		collected := make([]opResult, 0, total)
		for r := range results {
			collected = append(collected, r)
		}
		steps = append(steps, summarizeStep(rate, collected, time.Since(stepStart)))
		all = append(all, collected...)
	}
	return steps, all
}

// pickOp draws the next request of the 80/15/5 search/add/delete mix. Every
// op consumes the same draws, so the sequence of kinds, query rows and add
// rows depends on the seed alone. A delete targets the oldest add
// acknowledged so far that is not yet deleted; while there is none, the op
// becomes a search.
func pickOp(rng *rand.Rand, mix *mixState, in inputs, due time.Duration) op {
	x, q := rng.Float64(), rng.Intn(in.queries.Rows())
	mix.mu.Lock()
	defer mix.mu.Unlock()
	switch {
	case x >= searchShare+addShare && len(mix.ackAdds) > 0:
		id := mix.ackAdds[0]
		mix.ackAdds = mix.ackAdds[1:]
		return op{kind: opDelete, due: due, id: id}
	case x >= searchShare && x < searchShare+addShare && mix.nextRow < in.adds.Rows():
		r := mix.nextRow
		mix.nextRow++
		return op{kind: opAdd, due: due, row: r}
	default:
		return op{kind: opSearch, due: due, row: q}
	}
}

func doOp(c *http.Client, sp *serverProc, w workload, in inputs, mix *mixState, o op, stepStart, loadStart time.Time, tr *tracer) opResult {
	res := opResult{op: o}
	res.sample.Due = o.due
	res.sample.Sent = time.Since(stepStart)
	name := [...]string{"server.search", "server.add", "server.delete"}[o.kind]
	h := tr.begin(name, o.seq, -1)
	switch o.kind {
	case opSearch:
		var out searchResp
		res.status, res.err = post(c, sp.base+"/search", searchReq{Vector: in.queries.Row(o.row), K: w.k}, &out)
		res.hits = out.Results
	case opAdd:
		var out struct {
			ID *int `json:"id"`
		}
		res.status, res.err = post(c, sp.base+"/vectors", map[string][]float32{"vector": in.adds.Row(o.row)}, &out)
		if res.err == nil && out.ID == nil {
			res.err = errors.New("/vectors answer has no id")
		}
		if res.err == nil {
			mix.mu.Lock()
			mix.addedRow[*out.ID] = o.row
			mix.ackAdds = append(mix.ackAdds, *out.ID)
			mix.mu.Unlock()
		}
	case opDelete:
		var out struct {
			Deleted bool `json:"deleted"`
		}
		res.status, res.err = post(c, sp.base+"/delete", map[string]int{"id": o.id}, &out)
		res.ok = out.Deleted
		if res.err == nil {
			mix.mu.Lock()
			mix.deletedAt[o.id] = int64(time.Since(loadStart))
			mix.mu.Unlock()
		}
	}
	tr.end(h)
	res.sample.Done = time.Since(stepStart)
	res.sample.OK = res.err == nil
	// Searches are checked against deletes in load-phase time.
	res.sample.Sent += stepStart.Sub(loadStart)
	res.sample.Due += stepStart.Sub(loadStart)
	res.sample.Done += stepStart.Sub(loadStart)
	return res
}

func summarizeStep(rate float64, rs []opResult, wall time.Duration) rateStep {
	var search []openLoopSample
	var lat []float64
	for _, r := range rs {
		if r.kind == opSearch {
			search = append(search, r.sample)
			lat = append(lat, r.sample.latency())
		}
	}
	return rateStep{
		Offered:  rate,
		Achieved: float64(len(rs)) / wall.Seconds(),
		SearchP:  summarize(lat, 99),
		Growing:  backlogGrowing(search, limitMs),
	}
}

// httpRun is what one run of the HTTP workload measured, for the traced run
// to build on.
type httpRun struct {
	in    inputs
	st    store
	dir   string // the served data directory
	steps []rateStep
	ops   []opResult
	// Latencies in ms of the recall queries answered over HTTP after the
	// load, against the index state the server ended with.
	recallMs   []float64
	writeBytes int64 // server write_bytes during the load phase
	userBytes  int64 // vector bytes the acknowledged adds carried
}

// driveHTTP runs the durable HTTP workload: prepare the store, start the
// server setupReps times on fresh copies of it (setup_s), drive the open
// loop, then check every answer and the final live set.
func driveHTTP(w workload, cfg runConfig, rep *report, tr *tracer) (*httpRun, error) {
	in := generate(w, cfg.seed)
	st, err := prepareStore(w, in, cfg.work)
	if err != nil {
		return nil, fmt.Errorf("prepare store: %w", err)
	}
	run := &httpRun{in: in, st: st, dir: filepath.Join(cfg.work, "served")}
	var setup []float64
	var sp *serverProc
	for r := 0; r < setupReps; r++ {
		if sp != nil {
			if err := sp.stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
		}
		if err := copyDir(st.full, run.dir); err != nil {
			return nil, err
		}
		var ready time.Duration
		sp, ready, err = startServer(cfg, run.dir)
		if err != nil {
			return nil, err
		}
		setup = append(setup, ready.Seconds())
	}
	defer func() {
		if sp != nil {
			sp.stop()
		}
	}()
	rep.setE2E("setup_s", metricVal{Value: median(setup), Unit: "s", N: len(setup), Note: "server start to ready /healthz: checkpoint load + WAL replay"})

	n := in.data.Rows()
	mix := &mixState{n: n, addedRow: map[int]int{}, deletedAt: map[int]int64{}, nextRow: walTail}
	for i := 0; i < walTail; i++ {
		mix.addedRow[n+i] = i
	}
	pid := sp.cmd.Process.Pid
	wb0, _ := procField(pid, "io", "write_bytes")
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go sampleRSS(pid, stopRSS, rssDone)
	run.steps, run.ops = loadPhase(sp, w, in, mix, cfg.seed, cfg.seconds, tr)
	close(stopRSS)
	rss := <-rssDone
	wb1, _ := procField(pid, "io", "write_bytes")
	run.writeBytes = wb1 - wb0
	if len(rss) == 0 {
		return nil, errors.New("no VmRSS sample of the server")
	}

	checkLoad(w, in, mix, run, rep)
	live := n + len(mix.addedRow) - len(mix.deletedAt)
	rep.setE2E("mem_bytes_per_vector", metricVal{Value: median(rss) * 1024 / float64(live), Unit: "B", N: len(rss), Note: "median server VmRSS over the load"})

	if err := checkFinal(sp, w, in, mix, run, rep); err != nil {
		return nil, err
	}
	if err := sp.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	sp = nil
	disk, err := dirBytes(run.dir)
	if err != nil {
		return nil, err
	}
	rep.setE2E("disk_bytes_per_vector", metricVal{Value: float64(disk) / float64(live), Unit: "B", Note: "data dir after shutdown"})
	rep.setE2E("ok_frac", metricVal{Value: 1 - float64(rep.failed)/float64(max(rep.attempted, 1)), Unit: "frac", N: rep.attempted})
	return run, nil
}

// checkLoad checks every load-phase answer and reports the load metrics.
func checkLoad(w workload, in inputs, mix *mixState, run *httpRun, rep *report) {
	rowOf := mix.rowOf(in)
	// Add latency is taken over the steps up to the reference rate: the
	// steps beyond it may overload the server on purpose, and their queueing
	// delay would swamp the cost of the add itself.
	var addLat []float64
	for _, r := range run.ops {
		rep.attempted++
		if r.kind == opAdd && r.rate <= referenceRate {
			addLat = append(addLat, r.sample.latency())
		}
		if r.err != nil {
			rep.errored("%v", r.err)
			continue
		}
		switch r.kind {
		case opSearch:
			if msg := checkHits(in.queries.Row(r.row), r.hits, w.k, mix.n, rowOf); msg != "" {
				rep.fail("search: %s", msg)
			}
			for _, h := range r.hits {
				if at, ok := mix.deletedAt[h.ID]; ok && at < int64(r.sample.Sent) {
					rep.fail("search sent %v returned id %d deleted at %v", r.sample.Sent, h.ID, time.Duration(at))
				}
			}
		case opAdd:
			run.userBytes += int64(in.adds.Dim() * 4)
		case opDelete:
			if !r.ok {
				rep.fail("delete of acknowledged id %d answered deleted:false", r.id)
			}
		}
	}
	var ref rateStep
	for _, s := range run.steps {
		if s.Offered == referenceRate {
			ref = s
		}
	}
	rep.setE2E("search_p50_ms", metricVal{Value: ref.SearchP.P50, Unit: "ms", N: ref.SearchP.N, Note: fmt.Sprintf("open loop at %g req/s, from due time", referenceRate)})
	rep.setE2E("search_p99_ms", metricVal{Value: ref.SearchP.Tail, Unit: "ms", N: ref.SearchP.N, At: ref.SearchP.TailAt, Note: fmt.Sprintf("open loop at %g req/s, from due time", referenceRate)})
	at := summarize(addLat, 99)
	note := fmt.Sprintf("open loop up to %g req/s, from due time", referenceRate)
	rep.setE2E("add_p50_ms", metricVal{Value: at.P50, Unit: "ms", N: at.N, Note: note})
	rep.setE2E("add_p99_ms", metricVal{Value: at.Tail, Unit: "ms", N: at.N, At: at.TailAt, Note: note})
	for _, s := range run.steps {
		fmt.Printf("step offered=%g/s achieved=%.1f/s search_p50=%.3fms search_p%g=%.3fms n=%d growing_backlog=%v\n",
			s.Offered, s.Achieved, s.SearchP.P50, s.SearchP.TailAt, s.SearchP.Tail, s.SearchP.N, s.Growing)
	}
	if best, ok := sustained(run.steps, limitMs); ok {
		rep.setE2E("sustained_qps", metricVal{Value: best.Achieved, Unit: "1/s", Note: fmt.Sprintf("achieved at offered %g/s; p99 limit %gms", best.Offered, limitMs)})
		rep.setE2E("search_qps", metricVal{Value: best.Achieved * searchShare, Unit: "1/s", Note: "search share of sustained_qps"})
	} else {
		rep.errored("no offered rate met the %gms search limit", limitMs)
	}
}

// checkFinal runs the post-load checks against the live set: every
// acknowledged add is found at distance 0 under its id with an exhaustive
// budget and no deleted id is found at all (each search restricted to the
// one id, see addPhase), then recall and the overall ratio of held-out
// queries against exact ground truth.
func checkFinal(sp *serverProc, w workload, in inputs, mix *mixState, run *httpRun, rep *report) error {
	c := httpClient()
	defer c.CloseIdleConnections()
	live := mix.n + len(mix.addedRow) - len(mix.deletedAt)
	exhaustive := live // t ≥ live makes the budget 2tL+k cover every live vector
	for id, r := range mix.addedRow {
		var out searchResp
		rep.attempted++
		req := searchReq{Vector: in.adds.Row(r), K: 1, T: exhaustive, FilterIDs: []int{id}}
		if _, err := post(c, sp.base+"/search", req, &out); err != nil {
			rep.errored("%v", err)
			continue
		}
		_, deleted := mix.deletedAt[id]
		switch {
		case deleted && len(out.Results) > 0:
			rep.fail("deleted id %d still returned", id)
		case !deleted && (len(out.Results) != 1 || out.Results[0].ID != id || out.Results[0].Dist != 0):
			rep.fail("added id %d not found at distance 0 (got %v)", id, out.Results)
		}
	}

	nq := min(200, in.queries.Rows())
	qs := rows(in.queries)[:nq]
	// Ground truth over the live set: corpus rows plus surviving adds, laid
	// out as one matrix with its ids alongside.
	ids := make([]int, 0, live)
	flat := make([]float32, 0, live*in.data.Dim())
	for id := 0; id < mix.n; id++ {
		ids = append(ids, id)
	}
	flat = append(flat, in.data.Data()...)
	added := make([]int, 0, len(mix.addedRow))
	for id := range mix.addedRow {
		if _, dead := mix.deletedAt[id]; !dead {
			added = append(added, id)
		}
	}
	sort.Ints(added)
	for _, id := range added {
		ids = append(ids, id)
		flat = append(flat, in.adds.Row(mix.addedRow[id])...)
	}
	truth := groundTruth(vec.WrapMatrix(flat, len(ids), in.data.Dim()), qs, w.k, nil)
	rowOf := mix.rowOf(in)
	var qa quality
	for i, q := range qs {
		var out searchResp
		rep.attempted++
		t0 := time.Now()
		_, err := post(c, sp.base+"/search", searchReq{Vector: q, K: w.k}, &out)
		run.recallMs = append(run.recallMs, ms(time.Since(t0)))
		if err != nil {
			rep.errored("%v", err)
			continue
		}
		if msg := checkHits(q, out.Results, w.k, live, rowOf); msg != "" {
			rep.fail("recall query %d: %s", i, msg)
		}
		for j := range truth[i] {
			truth[i][j].ID = ids[truth[i][j].ID]
		}
		qa.add(out.Results, truth[i], w.k)
	}
	qa.report(rep)
	return nil
}
