// Command perfbench is the repository's benchmark: one command that builds a
// named workload's inputs from a seed, runs the DB-LSH engine on them, checks
// every output against exact brute force, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer split) by name with their units.
//
//	bash perfbench/run.sh --workload read-lowdim --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Lines before it give every metric with its
// sample count and the run's environment. With -out the run is also appended
// to a JSON-lines result file, and
//
//	perfbench -compare base.jsonl,new.jsonl -spec BENCHMARK.json
//
// diffs two such files per (workload, metric). METRICS.md lists what every
// metric means and which end-to-end metric each per-layer one should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"dblsh/internal/dataset"
	"dblsh/internal/vec"
	"dblsh/internal/vec/cpu"
)

// workload describes one named input set and how it is driven.
type workload struct {
	name    string
	profile dataset.Profile // corpus: shape, size and its own fixed seed
	pool    int             // held-out rows generated with the corpus
	shards  int
	queries int // distinct search queries drawn from the pool
	adds    int // pool rows added after the read phase (in-process) or offered to /vectors (HTTP)
	k       int
	http    bool
}

// The corpora are internal/dataset's two-level mixtures with those
// profiles' own seeds: the SIFT10M shape (tight clusters, seed 8) and the NUS
// shape (broad, overlapping clusters, seed 5), at the sizes below. Each
// workload's corpus is the same on every run; the run's seed draws the
// queries and added rows from the held-out pool and drives the request mix.
var workloads = []workload{
	{
		name:    "read-lowdim",
		profile: dataset.Profile{N: 200_000, Dim: 128, Clusters: 250, Std: 1, Spread: 11, SubClusters: 35, Seed: dataset.SIFT10M.Seed},
		pool:    20_000, shards: 1, queries: 2000, adds: 2000, k: 10,
	},
	{
		name:    "read-highdim-sharded",
		profile: dataset.Profile{N: 84_000, Dim: 960, Clusters: 8, Std: 2.5, Spread: 3, SubClusters: 40, SubStd: 1.8, Seed: dataset.NUS.Seed},
		pool:    6000, shards: 8, queries: 500, adds: 3000, k: 10,
	},
	{
		name:    "mixed-durable-http",
		profile: dataset.Profile{N: 100_000, Dim: 128, Clusters: 250, Std: 1, Spread: 11, SubClusters: 35, Seed: dataset.SIFT10M.Seed},
		pool:    20_000, shards: 4, queries: 1000, adds: 4000, k: 10, http: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig carries the command-line settings of one run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	server  string // dblsh-server binary (HTTP workload)
	work    string // scratch directory for stores, traces and results
}

// metricVal is one reported metric with the sample count behind it.
type metricVal struct {
	Value float64
	Unit  string
	N     int     // samples behind the value (0: a single measurement)
	At    float64 // percentile a tail timing was taken at (0: not a tail)
	Note  string
}

// report collects a run's metrics and check outcomes.
type report struct {
	e2e       map[string]metricVal
	layer     map[string]metricVal
	attempted int
	failed    int // operations that errored or were refused, plus failed checks
	wrong     int // failed output checks
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]metricVal{}, layer: map[string]metricVal{}}
}

func (r *report) setE2E(name string, v metricVal)   { r.e2e[name] = v }
func (r *report) setLayer(name string, v metricVal) { r.layer[name] = v }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.wrong++
	if r.wrong <= 5 {
		r.notes = append(r.notes, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// errored records an operation that errored, was refused or timed out.
func (r *report) errored(format string, args ...any) {
	r.failed++
	if r.failed-r.wrong <= 5 {
		r.notes = append(r.notes, "error: "+fmt.Sprintf(format, args...))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// envStamp records what a result was measured on.
type envStamp struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	N            int      `json:"corpus_n"`
	Dim          int      `json:"corpus_dim"`
	Queries      int      `json:"queries"`
	Adds         int      `json:"adds"`
	Shards       int      `json:"shards"`
	Kernel       string   `json:"kernel"`
	KernelSource string   `json:"kernel_source"`
	CPUFeatures  []string `json:"cpu_features"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	GOARCH       string   `json:"goarch"`
	OSKernel     string   `json:"os_kernel"`
	GitSHA       string   `json:"git_sha"`
}

func stamp(w workload, cfg runConfig, sha string) envStamp {
	osr, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envStamp{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		N: w.profile.N, Dim: w.profile.Dim, Queries: w.queries, Adds: w.adds, Shards: w.shards,
		Kernel: vec.KernelName(), KernelSource: vec.KernelSource(), CPUFeatures: cpu.Detect().List(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		OSKernel: strings.TrimSpace(string(osr)), GitSHA: sha,
	}
}

// record is one run as appended to a -out results file.
type record struct {
	Env    envStamp   `json:"env"`
	Result jsonResult `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 15, "measured seconds of the load phase")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		server  = flag.String("server", "", "dblsh-server binary for the HTTP workload")
		work    = flag.String("work", ".bench_build/work", "scratch directory for stores, spans and results")
		sha     = flag.String("git-sha", "unknown", "source revision stamped into the result")
		out     = flag.String("out", "", "append this run to a JSON-lines results file")
		compare = flag.String("compare", "", "base.jsonl,new.jsonl: diff two results files instead of running")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark spec giving each metric's direction and bound (-compare)")
	)
	flag.Parse()
	if *compare != "" {
		files := strings.Split(*compare, ",")
		if len(files) != 2 {
			fatalf("-compare wants two comma-separated files")
		}
		if err := compareFiles(os.Stdout, files[0], files[1], *spec); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown -workload %q (have %s)", *name, workloadNames())
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, server: *server, work: *work}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	env := stamp(w, cfg, *sha)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	// The in-process workloads hold the corpus and one or two index copies
	// live at once; a tighter GC target keeps the process's peak memory near
	// its live heap on a shared machine. It applies to every commit alike.
	debug.SetGCPercent(25)

	rep := newReport()
	var err error
	switch {
	case w.http && cfg.trace:
		err = traceHTTP(w, cfg, rep)
	case w.http:
		_, err = driveHTTP(w, cfg, rep, nil)
	case cfg.trace:
		err = traceInProcess(w, cfg, rep)
	default:
		err = runInProcess(w, cfg, rep)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res := rep.result(cfg.trace)
	printReport(rep, cfg.trace)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Printf("note max_rss_kib=%d\n", ru.Maxrss)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Env: env, Result: res}); err != nil {
			fatalf("%v", err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result assembles the final JSON object: the end-to-end metrics, or with
// traced the per-layer ones.
func (r *report) result(traced bool) jsonResult {
	src := r.e2e
	if traced {
		src = r.layer
	}
	m := make(map[string]jsonMetric, len(src))
	for name, v := range src {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// JSON has no NaN or Inf; an unmeasurable value is a failed run.
			r.fail("metric %s is %v", name, v.Value)
			continue
		}
		m[name] = jsonMetric{Value: v.Value, Unit: v.Unit}
	}
	return jsonResult{Correct: r.wrong == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: m}
}

func printReport(r *report, traced bool) {
	src := r.e2e
	if traced {
		src = r.layer
	}
	names := make([]string, 0, len(src))
	for n := range src {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := src[n]
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  n=%d", v.N)
		}
		if v.At > 0 {
			extra += fmt.Sprintf(" at p%g", v.At)
		}
		if v.Note != "" {
			extra += "  (" + v.Note + ")"
		}
		fmt.Printf("metric %-30s %16.6f %-6s%s\n", n, v.Value, v.Unit, extra)
	}
	for _, n := range r.notes {
		fmt.Printf("note %s\n", n)
	}
	fmt.Printf("checks attempted=%d failed=%d wrong_outputs=%d\n", r.attempted, r.failed, r.wrong)
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
