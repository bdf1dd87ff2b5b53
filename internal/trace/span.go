package trace

// Request-scoped wall-clock spans — the serving-side counterpart of the
// simulator's virtual-time intervals. Where a Trace attributes simulated
// lane time to pipeline phases, a SpanSet attributes real time inside one
// fftxd request to serving phases: admission wait, queue, batch coalescing,
// plan lookup, engine execution, response encoding.
//
// A SpanSet is identified by a 16-hex-character trace ID that propagates
// through the wire codecs (the JSON trace_id field and the binary frame
// extensions of internal/serve) and is echoed in responses, so a client's
// observed latency can be joined with the server-side span tree at
// /debug/fftx/requests.
//
// The Begin/End discipline is checked by the serve and cluster test
// servers: once a server has shut down, every span a traced request began
// must have ended, on whichever goroutine it was handed to.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// NewTraceID returns a fresh 16-character lowercase-hex trace ID (64 random
// bits). It never fails: if the system randomness source is unavailable it
// falls back to math/rand.
func NewTraceID() string {
	var b [8]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], mrand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

// TraceIDLen is the exact length of a wire trace ID.
const TraceIDLen = 16

// ValidTraceID reports whether s is a well-formed wire trace ID: exactly 16
// lowercase hexadecimal characters.
func ValidTraceID(s string) bool {
	if len(s) != TraceIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one timed phase of a request. IDs are per-SpanSet (1, 2, 3, …);
// Parent 0 marks the root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNS and EndNS are Unix nanoseconds; EndNS is 0 while the span is
	// open.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns,omitempty"`
	// Attrs carries free-form key=value annotations (shape, engine, batch
	// rows, status).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DurationSec returns the span length in seconds (0 for open spans).
func (s Span) DurationSec() float64 {
	if s.EndNS == 0 {
		return 0
	}
	return float64(s.EndNS-s.StartNS) / 1e9
}

// SpanSet collects the spans of one request under one trace ID. It is safe
// for concurrent use: the HTTP handler, the dispatcher and a worker all
// record into the same set as the request moves between them. A nil
// *SpanSet is a valid no-op recorder, which is how unsampled requests skip
// all tracing work.
type SpanSet struct {
	mu      sync.Mutex
	traceID string
	spans   []Span
}

// NewSpanSet returns an empty span set under the given trace ID (a fresh
// one when empty).
func NewSpanSet(traceID string) *SpanSet {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &SpanSet{traceID: traceID}
}

// TraceID returns the set's trace ID ("" on a nil set).
func (ss *SpanSet) TraceID() string {
	if ss == nil {
		return ""
	}
	return ss.traceID
}

// SpanRef is a handle to one span of a SpanSet. The zero value (and any ref
// obtained from a nil set) is a no-op: End and SetAttr do nothing, Begin
// returns another no-op ref.
type SpanRef struct {
	set *SpanSet
	id  int
}

// Begin opens a root-level span (parent 0). On a nil set it returns a
// no-op ref.
func (ss *SpanSet) Begin(name string) SpanRef {
	return ss.beginAt(name, 0, time.Now())
}

// BeginAt opens a root-level span with an explicit start time — used when
// the phase started before the recorder existed (admission wait starts at
// request arrival, sampling is decided after decode).
func (ss *SpanSet) BeginAt(name string, start time.Time) SpanRef {
	return ss.beginAt(name, 0, start)
}

func (ss *SpanSet) beginAt(name string, parent int, start time.Time) SpanRef {
	if ss == nil {
		return SpanRef{}
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	id := len(ss.spans) + 1
	ss.spans = append(ss.spans, Span{ID: id, Parent: parent, Name: name, StartNS: start.UnixNano()})
	return SpanRef{set: ss, id: id}
}

// Begin opens a child span of r.
func (r SpanRef) Begin(name string) SpanRef {
	if r.set == nil {
		return SpanRef{}
	}
	return r.set.beginAt(name, r.id, time.Now())
}

// BeginAt opens a child span with an explicit start time.
func (r SpanRef) BeginAt(name string, start time.Time) SpanRef {
	if r.set == nil {
		return SpanRef{}
	}
	return r.set.beginAt(name, r.id, start)
}

// End closes the span at now. Ending a no-op or already-ended span does
// nothing.
func (r SpanRef) End() { r.EndAt(time.Now()) }

// EndAt closes the span at the given time.
func (r SpanRef) EndAt(end time.Time) {
	if r.set == nil {
		return
	}
	r.set.mu.Lock()
	defer r.set.mu.Unlock()
	sp := &r.set.spans[r.id-1]
	if sp.EndNS == 0 {
		sp.EndNS = end.UnixNano()
	}
}

// SetAttr annotates the span with one key=value pair.
func (r SpanRef) SetAttr(key, value string) {
	if r.set == nil {
		return
	}
	r.set.mu.Lock()
	defer r.set.mu.Unlock()
	sp := &r.set.spans[r.id-1]
	if sp.Attrs == nil {
		sp.Attrs = map[string]string{}
	}
	sp.Attrs[key] = value
}

// Tree snapshots the set as a serializable span tree.
func (ss *SpanSet) Tree() *SpanTree {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return &SpanTree{
		TraceID: ss.traceID,
		Spans:   append([]Span(nil), ss.spans...),
	}
}

// SpanTree is the serialized form of one request's spans — the payload of
// /debug/fftx/requests entries and the input of fftxtrace -requests.
type SpanTree struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// Root returns the first root-level span (the request span), or a zero Span
// when the tree is empty.
func (t *SpanTree) Root() Span {
	for _, s := range t.Spans {
		if s.Parent == 0 {
			return s
		}
	}
	return Span{}
}

// RootDurationSec returns the duration of the root span in seconds.
func (t *SpanTree) RootDurationSec() float64 { return t.Root().DurationSec() }

// Find returns the first span with the given name and true, or false.
func (t *SpanTree) Find(name string) (Span, bool) {
	for _, s := range t.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}

// ValidateSpans checks the structural invariants of the tree: a valid trace
// ID, exactly one root, parent links resolving to earlier spans, children
// contained in their parents (closed spans only, with tolerance for clock
// granularity), and End ≥ Start everywhere.
func (t *SpanTree) ValidateSpans() []error {
	var errs []error
	if !ValidTraceID(t.TraceID) {
		errs = append(errs, fmt.Errorf("span tree: malformed trace ID %q", t.TraceID))
	}
	roots := 0
	byID := map[int]Span{}
	for _, s := range t.Spans {
		byID[s.ID] = s
	}
	for _, s := range t.Spans {
		if s.Parent == 0 {
			roots++
		} else if _, ok := byID[s.Parent]; !ok {
			errs = append(errs, fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent))
		} else if s.Parent >= s.ID {
			errs = append(errs, fmt.Errorf("span %d (%s): parent %d is not an earlier span", s.ID, s.Name, s.Parent))
		}
		if s.EndNS != 0 && s.EndNS < s.StartNS {
			errs = append(errs, fmt.Errorf("span %d (%s): ends %d ns before it starts", s.ID, s.Name, s.StartNS-s.EndNS))
		}
		if p, ok := byID[s.Parent]; ok && s.EndNS != 0 && p.EndNS != 0 {
			const slackNS = int64(time.Millisecond)
			if s.StartNS < p.StartNS-slackNS || s.EndNS > p.EndNS+slackNS {
				errs = append(errs, fmt.Errorf("span %d (%s): [%d,%d] escapes parent %d [%d,%d]",
					s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.StartNS, p.EndNS))
			}
		}
	}
	if roots != 1 && len(t.Spans) > 0 {
		errs = append(errs, fmt.Errorf("span tree: %d root spans, want 1", roots))
	}
	return errs
}

// RenderSpanTree writes an indented ASCII timeline of the tree: one line
// per span with its offset from the root start, duration and attributes —
// the fftxtrace -requests view.
func (t *SpanTree) RenderSpanTree(w io.Writer) {
	root := t.Root()
	fmt.Fprintf(w, "trace %s  root %s  %.3fms\n", t.TraceID, root.Name, root.DurationSec()*1e3)
	children := map[int][]Span{}
	for _, s := range t.Spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].StartNS != kids[j].StartNS {
				return kids[i].StartNS < kids[j].StartNS
			}
			return kids[i].ID < kids[j].ID
		})
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, s := range children[parent] {
			offMS := float64(s.StartNS-root.StartNS) / 1e6
			durMS := s.DurationSec() * 1e3
			state := ""
			if s.EndNS == 0 {
				state = " (open)"
			}
			fmt.Fprintf(w, "%s%-*s +%8.3fms %9.3fms%s%s\n",
				strings.Repeat("  ", depth), 24-2*depth, s.Name, offMS, durMS, state, attrString(s.Attrs))
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
}

func attrString(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%s", k, attrs[k])
	}
	return b.String()
}
