package serve

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
)

// collectOutcomes flattens a finished trace's span names and their
// outcome annotations.
func collectOutcomes(td *obs.TraceData) map[string]string {
	out := map[string]string{}
	for _, sd := range td.Spans() {
		key := sd.Name
		out[key] = ""
		for _, a := range sd.Annots[:sd.NAnn] {
			if a.Key == "outcome" {
				out[key] = a.Str
			}
		}
	}
	return out
}

// TestAdmissionSpanOutcomes drives one admission controller (one slot,
// one queue place) through all four outcomes on traced contexts and
// reads each request's admission span from its finished trace.
func TestAdmissionSpanOutcomes(t *testing.T) {
	tr := obs.NewTracer(8)
	a := NewAdmission(1, 1, nil)
	start := func(name string) (*obs.Span, context.Context) {
		root := tr.StartTrace(name)
		return root, obs.ContextWithSpan(context.Background(), root)
	}
	outcome := func(root *obs.Span) string {
		id := root.TraceID()
		root.End()
		return collectOutcomes(tr.Trace(id))["admission"]
	}

	// Fast path: the slot is free.
	fast, ctx := start("fast")
	release, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Queued: the slot is busy, so the waiter parks in the queue and is
	// admitted when the slot frees.
	queued, qctx := start("queued")
	admitted := make(chan func(), 1)
	go func() {
		r, err := a.Acquire(qctx)
		if err != nil {
			t.Error(err)
		}
		admitted <- r
	}()
	for a.queued.Value() != 1 {
		runtime.Gosched()
	}
	// Shed: the slot is busy and the queue is full.
	shed, ctx := start("shed")
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want shed, got %v", err)
	}
	release()
	release = <-admitted
	// Deadline: the waiter's context ends while it waits in the queue.
	deadline, ctx := start("deadline")
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	release()

	for _, c := range []struct {
		root *obs.Span
		want string
	}{{fast, "fast_path"}, {queued, "queued"}, {shed, "shed"}, {deadline, "deadline"}} {
		if got := outcome(c.root); got != c.want {
			t.Errorf("admission outcome %q, want %q", got, c.want)
		}
	}
}

// TestSpanSitesAllocs holds the admission and cache span sites to an
// allocation budget per call, on an untraced context and on one traced
// past the span retention cap, as obs.TestSpanCycleAllocFree does: the
// spans come from the tracer's pool and every annotation is a constant,
// so tracing adds nothing. Acquire's fast path allocates its release
// closure; its shed and deadline paths and a cache hit allocate nothing.
func TestSpanSitesAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	root := obs.NewTracer(1).StartTrace("steady")
	for i := 0; i < 5000; i++ {
		root.StartChild("warm").End()
	}
	free := NewAdmission(1, 0, nil)
	full := NewAdmission(1, 0, nil) // its slot is held: a request sheds
	waiting := NewAdmission(1, 1, nil)
	for _, a := range []*Admission{full, waiting} {
		if _, err := a.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache[int](1, nil)
	var k Key
	compute := func(context.Context) (int, error) { return 1, nil }
	if _, _, err := c.DoCtx(context.Background(), k, compute); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"untraced", context.Background()},
		{"traced", obs.ContextWithSpan(context.Background(), root)},
	} {
		ended, cancel := context.WithCancel(tc.ctx)
		cancel()
		for _, p := range []struct {
			path   string
			budget float64
			want   error
			call   func() error
		}{
			{"fast", 1, nil, func() error {
				release, err := free.Acquire(tc.ctx)
				release()
				return err
			}},
			{"shed", 0, ErrQueueFull, func() error {
				_, err := full.Acquire(tc.ctx)
				return err
			}},
			{"deadline", 0, context.Canceled, func() error {
				_, err := waiting.Acquire(ended)
				return err
			}},
			{"hit", 0, nil, func() error {
				_, _, err := c.DoCtx(tc.ctx, k, compute)
				return err
			}},
		} {
			var err error
			n := testing.AllocsPerRun(1000, func() { err = p.call() })
			if !errors.Is(err, p.want) {
				t.Fatalf("%s %s: err %v, want %v", tc.name, p.path, err, p.want)
			}
			if n > p.budget {
				t.Errorf("%s %s: %v allocations per call, budget %v", tc.name, p.path, n, p.budget)
			}
		}
	}
}

func TestAdmissionSpanUntracedContext(t *testing.T) {
	a := NewAdmission(1, 1, nil)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
}

func TestCacheSpanOutcomes(t *testing.T) {
	tr := obs.NewTracer(8)
	c := NewCache[int](4, nil)
	var k Key
	k[0] = 0x51

	do := func(name string) (int, Outcome) {
		root := tr.StartTrace(name)
		ctx := obs.ContextWithSpan(context.Background(), root)
		v, out, err := c.DoCtx(ctx, k, func(ctx context.Context) (int, error) {
			// The compute context must carry the cache span so nested
			// work parents correctly.
			if obs.SpanFromContext(ctx) == nil {
				t.Error("compute context carries no span")
			}
			return 42, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		return v, out
	}

	if v, out := do("miss"); v != 42 || out != Miss {
		t.Fatalf("first call: %d %v", v, out)
	}
	if v, out := do("hit"); v != 42 || out != Hit {
		t.Fatalf("second call: %d %v", v, out)
	}

	rec := tr.Recent()
	hitOutcomes := collectOutcomes(rec[0])
	missOutcomes := collectOutcomes(rec[1])
	if missOutcomes["cache"] != "miss" {
		t.Errorf("miss trace: %v", missOutcomes)
	}
	if hitOutcomes["cache"] != "hit" {
		t.Errorf("hit trace: %v", hitOutcomes)
	}
}

func TestCacheSpanCoalesced(t *testing.T) {
	tr := obs.NewTracer(8)
	c := NewCache[int](4, nil)
	var k Key
	k[0] = 0x52
	gate := make(chan struct{})
	started := make(chan struct{})

	go func() {
		_, _, _ = c.Do(context.Background(), k, func() (int, error) {
			close(started)
			<-gate
			return 7, nil
		})
	}()
	<-started

	root := tr.StartTrace("waiter")
	ctx := obs.ContextWithSpan(context.Background(), root)
	done := make(chan Outcome, 1)
	go func() {
		_, out, _ := c.DoCtx(ctx, k, func(context.Context) (int, error) { return 0, nil })
		done <- out
	}()
	for c.Waiting() == 0 {
	}
	close(gate)
	if out := <-done; out != Coalesced {
		t.Fatalf("outcome %v, want coalesced", out)
	}
	root.End()

	outcomes := collectOutcomes(tr.Recent()[0])
	if outcomes["cache"] != "coalesced" {
		t.Errorf("outcomes: %v", outcomes)
	}
	if _, ok := outcomes["coalesce"]; !ok {
		t.Errorf("no coalesce wait span: %v", outcomes)
	}
}
