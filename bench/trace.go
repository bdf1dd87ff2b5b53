package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the harness made: name, start, end, the span that
// caused it and the op it belongs to. Spans of one op share the op number.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// TraceID joins a request's harness spans to the server's own span tree
	// at /debug/fftx/requests (the Fftx-Trace-Id the server echoed).
	TraceID string `json:"trace_id,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs skip all of this.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id (0 on a nil tracer), so the
// caller can parent later spans on it.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	return id
}

// reserve records an open span whose end is set later by finish; it lets a
// parent get its id before its children are recorded.
func (t *tracer) reserve(name string, op int, start time.Time) int {
	return t.add(name, 0, op, start, start)
}

func (t *tracer) finish(id int, end time.Time, traceID string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = end.UnixNano()
	t.spans[id-1].TraceID = traceID
	t.mu.Unlock()
}

// spanSummary is the per-name roll-up written beside the raw spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span its children cover.
	SelfMS float64 `json:"self_ms"`
}

// summarize computes total and self time per span name. A span's self time
// is its duration minus the union of its children's intervals inside it.
func summarize(spans []span) []spanSummary {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(s.EndNS-s.StartNS) / 1e6
		sum.SelfMS += float64(s.EndNS-s.StartNS-covered(s, children[s.ID])) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, sum := range byName {
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	edge := s.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// write stores the spans and their summary as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summarize(t.spans), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
