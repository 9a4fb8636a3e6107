package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadRuns reads a -out results file into workload → metric → values.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		m := out[rec.Env.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[rec.Env.Workload] = m
		}
		for name, v := range rec.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict classifies a (workload, metric) pair from each side's runs. The
// change is the new median's relative distance from the base median, signed
// so that positive is worse. A metric whose run-to-run spread on either side
// exceeds its bound is unresolved, unless every new run is better (or worse)
// than every base run. Without a bound the pair is informational.
func verdict(base, cur []float64, better string, bound *float64) (change float64, v string) {
	bm, cm := median(base), median(cur)
	change = (cm - bm) / math.Abs(bm)
	if better == "higher" {
		change = -change
	}
	if bm == 0 {
		change = 0
	}
	if bound == nil {
		return change, "info"
	}
	worseAll, betterAll := true, true
	for _, b := range base {
		for _, c := range cur {
			d := c - b
			if better == "higher" {
				d = -d
			}
			worseAll = worseAll && d > 0
			betterAll = betterAll && d < 0
		}
	}
	if max(spread(base), spread(cur)) > *bound && !worseAll && !betterAll {
		return change, "unresolved"
	}
	switch {
	case change > *bound:
		return change, "REGRESSION"
	case change < -spread(base) && change < 0:
		return change, "better"
	}
	return change, "same"
}

// compareFiles diffs two results files per (workload, metric): each side's
// median and quartiles, the change against the base median, and a verdict.
// It returns an error when any end-to-end metric regressed beyond its bound.
func compareFiles(out io.Writer, basePath, curPath, specPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := loadRuns(basePath)
	if err != nil {
		return err
	}
	cur, err := loadRuns(curPath)
	if err != nil {
		return err
	}
	var names []string
	for w := range base {
		if _, ok := cur[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tnew median [q1, q3] (n)\tworse by (of base median)\tbound\tverdict")
	regressions := 0
	for _, w := range names {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			bv, cv := base[w][m.Name], cur[w][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			change, v := verdict(bv, cv, m.Better, m.Bound)
			if v == "REGRESSION" {
				regressions++
			}
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%% (base %.4g)\t%s\t%s\n",
				w, m.Name, m.Unit, side(bv), side(cv), change*100, median(bv), bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end regression(s) beyond their bounds", regressions)
	}
	return nil
}

func side(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
