package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped span tracing: a Trace is a tree of timed Spans covering
// one request's path through the serving stack (admission wait, cache
// lookup, coalescing, scheduler compute, response render, per-cell
// simulation). The design goals mirror the observer hooks' contract:
//
//   - the hot path (StartChild / Annotate / End) is allocation-free in
//     steady state — Spans are drawn from a sync.Pool and finished span
//     records append into a capacity-reused slice (TestSpanCycleAllocFree
//     checks it, and BenchmarkSpanStartEnd gates 0 allocs/op);
//   - a nil *Span is an untraced request: its methods do nothing and
//     StartChild returns nil, so a call site starts a child and defers
//     its End without a guard, and an untraced call path pays one
//     context lookup and nothing else (serve's TestSpanSitesAllocs
//     measures the admission and cache paths, traced and untraced);
//   - finished traces are retained in a bounded ring, served by hpserve
//     at /traces (slowest-first list) and /trace/{id} (span tree), and
//     linked from HDR latency buckets through exemplar trace IDs.

// maxAnnotations bounds per-span key=value pairs; extras are dropped
// (the fixed array is what keeps Annotate allocation-free).
const maxAnnotations = 8

// maxSpansPerTrace bounds the retained spans of one trace; spans beyond
// it are counted in TraceData.Dropped instead of retained, so a runaway
// request cannot grow a trace without bound.
const maxSpansPerTrace = 4096

// Annotation is one key=value pair on a span. Values are either strings
// or int64s; the two-field form avoids boxing (an `any` field would
// allocate on every AnnotateInt).
type Annotation struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Value renders the annotation value for JSON trees and reports.
func (a Annotation) Value() any {
	if a.IsInt {
		return a.Int
	}
	return a.Str
}

// SpanData is the retained record of one finished span.
type SpanData struct {
	ID     uint64
	Parent uint64 // 0 for the root span
	Name   string
	Start  int64 // ns, wall clock
	End    int64 // ns, wall clock
	Annots [maxAnnotations]Annotation
	NAnn   int
}

// Duration returns the span's wall-clock duration.
func (s SpanData) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// TraceData is one finished (or still-accumulating) trace: the spans
// recorded so far plus identity. It is retained in the Tracer's ring
// after the root span ends and is never recycled, so a reader holding a
// *TraceData can never observe it being reused for a new request.
type TraceData struct {
	// ID is the process-unique trace ID (also the exemplar ID in HDR
	// histograms and the /trace/{id} path segment).
	ID uint64
	// Name is the root span's name (the handler that started the trace).
	Name string
	// Start is the root span's start instant (ns, wall clock).
	Start int64

	nextSpan atomic.Uint64

	mu       sync.Mutex
	spans    []SpanData
	dropped  int
	durNS    int64
	finished bool
}

// Spans returns a copy of the retained spans, ordered by start time
// (ties by span ID, so the order is deterministic).
func (t *TraceData) Spans() []SpanData {
	t.mu.Lock()
	out := append([]SpanData(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Dropped returns how many spans were discarded by the per-trace bound.
func (t *TraceData) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Finished reports whether the root span has ended.
func (t *TraceData) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished
}

// Duration returns the root span's duration (0 while unfinished).
func (t *TraceData) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.durNS)
}

// Span is one live, timed operation within a trace. Spans are pooled:
// after End the Span object is reused, so callers must not retain or
// touch a Span after ending it. A nil *Span stands for an untraced
// request: Annotate, AnnotateInt and End do nothing, StartChild returns
// nil and TraceID returns 0.
type Span struct {
	tracer *Tracer
	trace  *TraceData
	id     uint64
	parent uint64
	name   string
	start  int64
	annots [maxAnnotations]Annotation
	nann   int
}

// TraceID returns the owning trace's ID (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace.ID
}

// Annotate attaches a key=value string pair (dropped beyond the
// per-span annotation bound).
func (s *Span) Annotate(key, value string) {
	if s != nil && s.nann < maxAnnotations {
		s.annots[s.nann] = Annotation{Key: key, Str: value}
		s.nann++
	}
}

// AnnotateInt attaches a key=value integer pair without allocating.
func (s *Span) AnnotateInt(key string, value int64) {
	if s != nil && s.nann < maxAnnotations {
		s.annots[s.nann] = Annotation{Key: key, Int: value, IsInt: true}
		s.nann++
	}
}

// StartChild starts a sub-span of s, or returns nil when s is nil. The
// caller ends the child, by `defer child.End()` right after this call;
// it may outlive s (its record lands in the same trace).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := s.tracer.getSpan()
	child.tracer = s.tracer
	child.trace = s.trace
	child.id = s.trace.nextSpan.Add(1)
	child.parent = s.id
	child.name = name
	child.nann = 0
	child.start = time.Now().UnixNano()
	return child
}

// End finishes the span, retains its record in the trace, returns the
// span object to the pool, and — for a root span — moves the trace into
// the tracer's ring and fires the OnFinish hook. It returns the span's
// duration so call sites can feed latency metrics without re-reading
// the clock; a nil span returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	end := time.Now().UnixNano()
	td, tr, root := s.trace, s.tracer, s.parent == 0
	dur := end - s.start
	sd := SpanData{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, End: end,
		Annots: s.annots, NAnn: s.nann,
	}
	td.mu.Lock()
	if len(td.spans) < maxSpansPerTrace {
		td.spans = append(td.spans, sd)
	} else {
		td.dropped++
	}
	if root {
		td.durNS = dur
		td.finished = true
	}
	td.mu.Unlock()
	s.tracer, s.trace = nil, nil
	tr.spanPool.Put(s)
	if root {
		tr.retain(td)
	}
	return time.Duration(dur)
}

// Tracer mints traces, pools spans, and retains finished traces in a
// bounded ring (oldest evicted first). Safe for concurrent use.
type Tracer struct {
	spanPool sync.Pool
	nextID   atomic.Uint64
	// OnFinish, when non-nil, runs synchronously after a trace's root
	// span ends (in the ending goroutine). hpserve uses it to feed the
	// HDR latency families and their exemplars. Set it before the first
	// StartTrace; it must be safe for concurrent calls.
	OnFinish func(*TraceData)

	mu   sync.Mutex
	ring []*TraceData
	next int
	full bool
}

// NewTracer returns a tracer retaining the last capacity finished
// traces (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{ring: make([]*TraceData, capacity)}
	t.spanPool.New = func() any { return new(Span) }
	return t
}

func (t *Tracer) getSpan() *Span { return t.spanPool.Get().(*Span) }

// mixID is the splitmix64 finalizer: trace IDs are minted from a counter
// but exposed well-mixed, so IDs from different processes or restarts
// rarely collide in dashboards and logs.
func mixID(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StartTrace mints a new trace and returns its root span. Each trace
// allocates its TraceData (per-request cost); the spans within it are
// pooled.
func (t *Tracer) StartTrace(name string) *Span {
	now := time.Now().UnixNano()
	td := &TraceData{
		ID:    mixID(t.nextID.Add(1) ^ uint64(now)),
		Name:  name,
		Start: now,
	}
	sp := t.getSpan()
	sp.tracer = t
	sp.trace = td
	sp.id = td.nextSpan.Add(1)
	sp.parent = 0
	sp.name = name
	sp.nann = 0
	sp.start = now
	return sp
}

// retain inserts a finished trace into the ring and fires OnFinish.
func (t *Tracer) retain(td *TraceData) {
	t.mu.Lock()
	t.ring[t.next] = td
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	t.mu.Unlock()
	if f := t.OnFinish; f != nil {
		f(td)
	}
}

// Trace returns the retained trace with the given ID, or nil.
func (t *Tracer) Trace(id uint64) *TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, td := range t.ring {
		if td != nil && td.ID == id {
			return td
		}
	}
	return nil
}

// Recent returns the retained traces, newest first.
func (t *Tracer) Recent() []*TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	out := make([]*TraceData, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// FormatID renders a trace or span ID as fixed-width hex (the /trace/{id}
// path segment, the X-Trace-Id header, and the exemplar label value).
func FormatID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses FormatID's output (any hex spelling of a uint64).
func ParseID(s string) (uint64, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

// spanCtxKey keys the active span in a context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or nil when the request is
// untraced. The result may be used without a guard: every Span method
// accepts a nil receiver.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// SpanNode is one span in the rendered trace tree (the /trace/{id}
// payload and the shape hpload's phase breakdown parses).
type SpanNode struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUS is the span start relative to the trace start.
	StartUS    int64 `json:"start_us"`
	DurationUS int64 `json:"duration_us"`
	// SelfUS is DurationUS minus the children's durations (clamped at
	// zero): the time spent in this phase itself. Self times over a
	// trace sum to the root duration up to scheduling gaps, which is
	// what makes a slow request's latency explainable phase by phase.
	SelfUS      int64          `json:"self_us"`
	Annotations map[string]any `json:"annotations,omitempty"`
	Children    []*SpanNode    `json:"children,omitempty"`
}

// TraceTree is the rendered form of one trace.
type TraceTree struct {
	TraceID    string      `json:"trace_id"`
	Name       string      `json:"name"`
	Finished   bool        `json:"finished"`
	DurationUS int64       `json:"duration_us"`
	Dropped    int         `json:"dropped_spans,omitempty"`
	Spans      []*SpanNode `json:"spans"`
}

// Tree renders the trace as a parent-linked span tree. Spans whose
// parent record is missing (dropped, or still running when read) are
// promoted to roots, so the tree is total over the retained spans.
func (t *TraceData) Tree() *TraceTree {
	spans := t.Spans()
	t.mu.Lock()
	tree := &TraceTree{
		TraceID:    FormatID(t.ID),
		Name:       t.Name,
		Finished:   t.finished,
		DurationUS: t.durNS / int64(time.Microsecond),
		Dropped:    t.dropped,
	}
	start := t.Start
	t.mu.Unlock()

	nodes := make(map[uint64]*SpanNode, len(spans))
	for _, sd := range spans {
		n := &SpanNode{
			ID:         FormatID(sd.ID),
			Name:       sd.Name,
			StartUS:    (sd.Start - start) / int64(time.Microsecond),
			DurationUS: int64(sd.Duration() / time.Microsecond),
		}
		n.SelfUS = n.DurationUS
		if sd.NAnn > 0 {
			n.Annotations = make(map[string]any, sd.NAnn)
			for _, a := range sd.Annots[:sd.NAnn] {
				n.Annotations[a.Key] = a.Value()
			}
		}
		nodes[sd.ID] = n
	}
	for _, sd := range spans {
		n := nodes[sd.ID]
		if p, ok := nodes[sd.Parent]; ok && sd.Parent != sd.ID {
			n.Parent = FormatID(sd.Parent)
			p.Children = append(p.Children, n)
			p.SelfUS -= n.DurationUS
			if p.SelfUS < 0 {
				p.SelfUS = 0
			}
		} else {
			tree.Spans = append(tree.Spans, n)
		}
	}
	return tree
}

// Walk visits every node of the tree depth-first.
func (t *TraceTree) Walk(visit func(*SpanNode)) {
	var rec func(n *SpanNode)
	rec = func(n *SpanNode) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, n := range t.Spans {
		rec(n)
	}
}
