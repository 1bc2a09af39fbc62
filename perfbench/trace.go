package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only in the benchmark's own code, around its calls
// into each module's public functions. Each span has a name
// ("<layer>.<op>"), start, end and parent; every span of one HTTP request
// shares the request's id. Spans stay in memory and are written out when
// the run ends. A span's self time is its duration minus the part of it
// its children cover; spans of the "bench" layer are the benchmark's own
// glue, reported as the unattributed remainder.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; a nil tracer returns a zero span and records
// nothing.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}
}

// finish closes s and keeps it.
func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add keeps a span whose interval was measured elsewhere (times from
// time.Time values) and returns its id.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	s := span{ID: t.ids.Add(1), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// timed runs fn inside a span named name under parent and returns its
// wall time in seconds (measured whether or not r is traced).
func (r *run) timed(name string, parent int64, fn func() error) (float64, error) {
	s := r.tr.begin(name, parent, 0)
	t0 := time.Now()
	err := fn()
	d := sinceS(t0)
	r.tr.finish(s)
	return d, err
}

// analyze derives the span-based per-layer metrics and the attribution
// report: self time per layer as a share of the summed duration of all
// root spans, with the bench layer's self time as the unattributed
// remainder.
func (t *tracer) analyze(r *run) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = (s.End - s.Start) - covered(iv)
	}

	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	layerSelf := map[string]int64{}
	var rootTotal int64
	known := map[int64]bool{}
	for _, s := range spans {
		known[s.ID] = true
	}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], float64(self[i]))
		layerSelf[layerOf(s.Name)] += self[i]
		if s.Parent == 0 || !known[s.Parent] {
			rootTotal += s.End - s.Start
		}
	}
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e3 }
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e6 }
	reads := append(durs["store.dist"], durs["store.row"]...)
	r.layer["store.read_p50_us"] = us(reads, 0.5)
	r.layer["store.read_p99_us"] = us(reads, tailQuantile(len(reads), 0.99))
	h := durs["serve.handler"]
	r.layer["serve.handler_p50_us"] = us(h, 0.5)
	r.layer["serve.handler_p99_us"] = us(h, tailQuantile(len(h), 0.99))
	r.layer["serve.self_p50_us"] = us(selfs["serve.handler"], 0.5)
	r.layer["serve.wire_p50_us"] = us(selfs["loadgen.request"], 0.5)
	r.layer["hierarchy.dist_p50_ms"] = ms(durs["hierarchy.dist"], 0.5)
	r.layer["hierarchy.row_p50_ms"] = ms(durs["hierarchy.row"], 0.5)
	if rootTotal > 0 {
		r.layer["trace.unattributed_frac"] = float64(layerSelf["bench"]) / float64(rootTotal)
	}

	var layers []string
	for l := range layerSelf {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return layerSelf[layers[a]] > layerSelf[layers[b]] })
	r.notef("attribution (%s, %d spans, summed root-span time %.3fs; concurrent requests overlap in wall time):",
		r.workload, len(spans), float64(rootTotal)/1e9)
	for _, l := range layers {
		label := l
		if l == "bench" {
			label = "unattributed (benchmark glue)"
		}
		share := 0.0
		if rootTotal > 0 {
			share = float64(layerSelf[l]) / float64(rootTotal)
		}
		r.notef("  %-30s self %9.3fs  %5.1f%%", label, float64(layerSelf[l])/1e9, 100*share)
	}
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// dump writes the spans as JSON lines to dir/<workload>-seed<seed>.jsonl.
func (t *tracer) dump(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
