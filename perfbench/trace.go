package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call. Times are nanoseconds since the tracer started. Parent is the
// index of the enclosing span, or -1; every span of one query carries that
// query's id.
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run is over. A nil
// *tracer records nothing, so untraced code paths pay only a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, query, parent int) int {
	if t == nil {
		return -1
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Query: query, Parent: parent, Start: start})
	return len(t.spans) - 1
}

// end closes span h.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[h].End = end
	t.mu.Unlock()
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once,
// and a child's time outside its parent is ignored).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered returns how much of [lo,hi) the union of the given spans covers.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, c := range ids {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range ivs {
		if x.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x.a, x.b
			continue
		}
		curB = max(curB, x.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// perQuerySelf returns each query's summed self time, in microseconds, over
// the spans with any of the given names (queries with no such span are
// absent). self is selfTimes(spans).
func perQuerySelf(spans []span, self []int64, names ...string) []float64 {
	byQuery := make(map[int]int64)
	for i, s := range spans {
		if slices.Contains(names, s.Name) {
			byQuery[s.Query] += self[i]
		}
	}
	out := make([]float64, 0, len(byQuery))
	for _, v := range byQuery {
		out = append(out, float64(v)/1e3)
	}
	return out
}
