package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// spinFor burns wall time without sleeping, giving spans measurable,
// ordered durations (sleepsync bans time.Sleep in tests).
func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer(4)
	root := tr.StartTrace("request")
	root.Annotate("kind", "schedule")

	admit := root.StartChild("admission")
	admit.AnnotateInt("queue_depth", 3)
	spinFor(time.Millisecond)
	admit.End()

	cache := root.StartChild("cache")
	compute := cache.StartChild("compute")
	spinFor(time.Millisecond)
	compute.End()
	cache.End()

	id := root.TraceID()
	dur := root.End()
	if dur <= 0 {
		t.Fatalf("root duration %v", dur)
	}

	td := tr.Trace(id)
	if td == nil {
		t.Fatalf("trace %x not retained", id)
	}
	if !td.Finished() || td.Duration() != dur {
		t.Fatalf("finished=%v duration=%v want %v", td.Finished(), td.Duration(), dur)
	}

	tree := td.Tree()
	if tree.TraceID != FormatID(id) || tree.Name != "request" {
		t.Fatalf("tree identity: %+v", tree)
	}
	if len(tree.Spans) != 1 {
		t.Fatalf("want single root, got %d", len(tree.Spans))
	}
	rt := tree.Spans[0]
	if rt.Name != "request" || len(rt.Children) != 2 {
		t.Fatalf("root node: %+v", rt)
	}
	if rt.Annotations["kind"] != "schedule" {
		t.Fatalf("root annotations: %v", rt.Annotations)
	}
	var names []string
	tree.Walk(func(n *SpanNode) { names = append(names, n.Name) })
	if len(names) != 4 {
		t.Fatalf("walk visited %v", names)
	}
	// Self time: children's durations are subtracted from the parent.
	for _, c := range rt.Children {
		if c.Name == "admission" {
			if c.Annotations["queue_depth"] != int64(3) {
				t.Fatalf("int annotation: %v", c.Annotations)
			}
		}
		if c.Name == "cache" {
			if len(c.Children) != 1 || c.Children[0].Name != "compute" {
				t.Fatalf("cache children: %+v", c.Children)
			}
			if c.SelfUS > c.DurationUS {
				t.Fatalf("self %d > duration %d", c.SelfUS, c.DurationUS)
			}
		}
	}
	if rt.SelfUS > rt.DurationUS {
		t.Fatalf("root self %d > duration %d", rt.SelfUS, rt.DurationUS)
	}
	// Tree marshals to JSON.
	if _, err := json.Marshal(tree); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(2)
	var ids []uint64
	for i := 0; i < 3; i++ {
		sp := tr.StartTrace("r")
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	if tr.Trace(ids[0]) != nil {
		t.Fatalf("oldest trace not evicted")
	}
	if tr.Trace(ids[1]) == nil || tr.Trace(ids[2]) == nil {
		t.Fatalf("recent traces missing")
	}
	rec := tr.Recent()
	if len(rec) != 2 || rec[0].ID != ids[2] || rec[1].ID != ids[1] {
		t.Fatalf("Recent() not newest-first: %v (want %x then %x)", rec, ids[2], ids[1])
	}
}

func TestTracerOnFinish(t *testing.T) {
	tr := NewTracer(4)
	var mu sync.Mutex
	var got []*TraceData
	tr.OnFinish = func(td *TraceData) {
		mu.Lock()
		got = append(got, td)
		mu.Unlock()
	}
	sp := tr.StartTrace("r")
	child := sp.StartChild("c")
	child.End() // non-root End must not fire the hook
	id := sp.TraceID()
	sp.End()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("OnFinish fired %d times", len(got))
	}
}

func TestSpanDropBound(t *testing.T) {
	tr := NewTracer(1)
	root := tr.StartTrace("r")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.StartChild("c").End()
	}
	root.End()
	rec := tr.Recent()
	if len(rec) != 1 {
		t.Fatalf("want 1 retained trace")
	}
	if got := len(rec[0].Spans()); got != maxSpansPerTrace {
		t.Fatalf("retained %d spans, want %d", got, maxSpansPerTrace)
	}
	// 10 children + the root span itself arrived after the cap.
	if d := rec[0].Dropped(); d != 11 {
		t.Fatalf("dropped = %d, want 11", d)
	}
	if rec[0].Tree().Dropped != 11 {
		t.Fatalf("tree dropped mismatch")
	}
}

func TestSpanIDsUniqueAndMixed(t *testing.T) {
	tr := NewTracer(16)
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		sp := tr.StartTrace("r")
		id := sp.TraceID()
		if id == 0 || seen[id] {
			t.Fatalf("trace ID %x duplicate or zero", id)
		}
		seen[id] = true
		sp.End()
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%x) = %q", id, s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("round trip %x -> %q -> %x", id, s, back)
		}
	}
	if _, ok := ParseID("zzz"); ok {
		t.Fatalf("ParseID accepted garbage")
	}
	if _, ok := ParseID(""); ok {
		t.Fatalf("ParseID accepted empty")
	}
}

func TestSpanContext(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatalf("empty context yielded a span")
	}
	tr := NewTracer(1)
	sp := tr.StartTrace("r")
	ctx := ContextWithSpan(context.Background(), sp)
	if SpanFromContext(ctx) != sp {
		t.Fatalf("span not round-tripped through context")
	}
	sp.End()
}

// TestNilSpan: an untraced request's span is nil, and every method
// accepts it, so call sites start, annotate and end spans unguarded.
func TestNilSpan(t *testing.T) {
	sp := SpanFromContext(context.Background())
	child := sp.StartChild("c")
	if child != nil {
		t.Fatalf("a nil span started child %v", child)
	}
	child.Annotate("outcome", "hit")
	child.AnnotateInt("cell_index", 3)
	if d := child.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if id := sp.TraceID(); id != 0 {
		t.Errorf("nil span TraceID = %d, want 0", id)
	}
}

func TestSpanAnnotationBound(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.StartTrace("r")
	for i := 0; i < maxAnnotations+5; i++ {
		sp.AnnotateInt("k", int64(i))
	}
	sp.End()
	td := tr.Recent()[0]
	spans := td.Spans()
	if len(spans) != 1 || spans[0].NAnn != maxAnnotations {
		t.Fatalf("annotations retained: %d", spans[0].NAnn)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer(8)
	root := tr.StartTrace("r")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c := root.StartChild("cell")
				c.AnnotateInt("cell_index", int64(i))
				c.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	td := tr.Recent()[0]
	if got := len(td.Spans()); got != 8*200+1 {
		t.Fatalf("spans = %d, want %d", got, 8*200+1)
	}
}
