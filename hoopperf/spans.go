package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one cell or rung share a
// group id.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0: top level
	Name   string           `json:"name"`
	Group  string           `json:"group,omitempty"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced mode. Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 when tr is nil).
func (tr *tracer) begin(name, group string, parent int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.origin)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Group: group, Start: now})
	return len(tr.spans)
}

// end closes span id, attaching the counts taken at the same boundary.
func (tr *tracer) end(id int, counts map[string]int64) {
	if tr == nil {
		return
	}
	now := time.Since(tr.origin)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = now
	s.Counts = counts
}

// record adds an already-timed span (for calls timed by the caller).
func (tr *tracer) record(name, group string, parent int, start time.Time, d time.Duration, counts map[string]int64) {
	if tr == nil {
		return
	}
	s := start.Sub(tr.origin)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Group: group, Start: s, End: s + d, Counts: counts})
}

// durations returns the durations of every span with the given name.
func (tr *tracer) durations(name string) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanMillis is the mean duration of the named spans in ms (0 if none).
func (tr *tracer) meanMillis(name string) float64 {
	d := tr.durations(name)
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return float64(sum) / float64(len(d)) / 1e6
}

// selfTimes renders, per span name, the total time and the self time: a
// span's duration minus the part of it that its children cover.
func (tr *tracer) selfTimes() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int][]span{}
	for _, s := range tr.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - covered(s, children[s.ID])
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	out := []string{fmt.Sprintf("%-28s %7s %12s %12s", "span", "count", "total_s", "self_s")}
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("%-28s %7d %12.4f %12.4f", n, a.n, a.total.Seconds(), a.self.Seconds()))
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's (children may overlap when they run on a worker pool).
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

func (tr *tracer) writeFile(path string) error {
	tr.mu.Lock()
	data, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hostHist is a log-linear histogram of host nanoseconds (eight
// sub-buckets per power of two, so quantiles are within 12.5%), used for
// per-request timings where a span per request would be too many.
type hostHist struct {
	counts [64 * 8]int64
	n      int64
}

func (h *hostHist) observe(ns int64) {
	if ns < 1 {
		ns = 1
	}
	e := bits.Len64(uint64(ns)) - 1
	i := int(ns)
	if e >= 3 {
		i = e*8 + int(ns>>(e-3)&7)
	}
	h.counts[i]++
	h.n++
}

func (h *hostHist) merge(o *hostHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower bound of the bucket holding quantile q.
func (h *hostHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			if i < 8 {
				return float64(i)
			}
			e, sub := i/8, i%8
			return float64(int64(8+sub) << (e - 3))
		}
	}
	return 0
}
