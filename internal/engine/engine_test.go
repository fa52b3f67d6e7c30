package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestDeriveSeed(t *testing.T) {
	// Distinct per index, distinct per base, stable across calls.
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: indices %d and %d both derive %d", prev, i, s)
		}
		seen[s] = i
		if s != DeriveSeed(42, i) {
			t.Fatalf("DeriveSeed(42, %d) unstable", i)
		}
		if s == DeriveSeed(43, i) {
			t.Errorf("index %d: bases 42 and 43 derive the same seed", i)
		}
	}
}

func TestCellRandIndependent(t *testing.T) {
	a := Cell{Index: 0, Seed: DeriveSeed(1, 0)}.Rand()
	b := Cell{Index: 1, Seed: DeriveSeed(1, 1)}.Rand()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws from sibling cells", same)
	}
}

// TestMapOrderedReduction is the ordering property test: whatever the
// pool width and per-cell completion order, Map's output must equal the
// width-1 (sequential) run element for element.
func TestMapOrderedReduction(t *testing.T) {
	const n = 500
	fn := func(_ context.Context, c Cell) (string, error) {
		// Cell-derived randomness plus index: any misrouted result or
		// seed-derivation drift changes the value.
		r := c.Rand()
		return fmt.Sprintf("%d:%d:%d", c.Index, c.Seed, r.Int63()), nil
	}
	seq, err := Map(context.Background(), NewPool(1, nil), Job{Cells: n, Seed: 99}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 3, 8, 64} {
		par, err := Map(context.Background(), NewPool(width, nil), Job{Cells: n, Seed: 99}, fn)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != n {
			t.Fatalf("width %d: %d results, want %d", width, len(par), n)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("width %d: cell %d = %q, sequential run got %q", width, i, par[i], seq[i])
			}
		}
	}
}

func TestMapPanicCapture(t *testing.T) {
	_, err := Map(context.Background(), NewPool(4, nil), Job{Cells: 16}, func(_ context.Context, c Cell) (int, error) {
		if c.Index == 3 {
			panic("boom")
		}
		return c.Index, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell.Index != 3 || pe.Value != "boom" {
		t.Errorf("panic error = %+v, want cell 3 / boom", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error has no stack")
	}
}

func TestMapErrorIdentity(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), NewPool(4, nil), Job{Cells: 64}, func(_ context.Context, c Cell) (int, error) {
		if c.Index == 7 {
			return 0, fmt.Errorf("cell %d: %w", c.Index, boom)
		}
		return c.Index, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the genuine cell failure", err)
	}
	// Cells cancelled in the failure's wake must not mask it.
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v leaks the internal cancellation", err)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 64)
	_, err := Map(ctx, NewPool(2, nil), Job{Cells: 64}, func(ctx context.Context, c Cell) (int, error) {
		started <- struct{}{}
		if c.Index == 0 {
			cancel() // external cancellation mid-run
			return 0, nil
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must have cut the run short: with 64 cells and the
	// first one cancelling, nowhere near all cells may start.
	if n := len(started); n == 64 {
		t.Error("all 64 cells started despite cancellation")
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	res, err := Map(context.Background(), NewPool(2, nil), Job{Cells: 0}, func(_ context.Context, _ Cell) (int, error) { return 1, nil })
	if err != nil || res != nil {
		t.Errorf("empty job = (%v, %v), want (nil, nil)", res, err)
	}
	if _, err := Map(context.Background(), NewPool(2, nil), Job{Cells: -1}, func(_ context.Context, _ Cell) (int, error) { return 1, nil }); err == nil {
		t.Error("negative cell count accepted")
	}
}

// TestPoolBoundsInFlight shares one width-2 pool between two concurrent
// Maps and asserts the global in-flight bound holds.
func TestPoolBoundsInFlight(t *testing.T) {
	p := NewPool(2, nil)
	var inFlight, peak atomic.Int64
	fn := func(_ context.Context, c Cell) (int, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		// A little arithmetic so cells overlap.
		r := c.Rand()
		s := 0
		for i := 0; i < 2000; i++ {
			s += int(r.Int63() % 7)
		}
		inFlight.Add(-1)
		return s, nil
	}
	var wg sync.WaitGroup
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Map(context.Background(), p, Job{Cells: 100}, fn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("peak in-flight cells %d, pool width 2", got)
	}
}

func TestMapMaxParallel(t *testing.T) {
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), NewPool(8, nil), Job{Cells: 200, MaxParallel: 1}, func(_ context.Context, c Cell) (int, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return c.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak in-flight cells %d with MaxParallel 1", got)
	}
}

func TestPoolMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(3, reg)
	if _, err := Map(context.Background(), p, Job{Cells: 10}, func(_ context.Context, c Cell) (int, error) { return c.Index, nil }); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Width != 3 {
		t.Errorf("width %d, want 3", st.Width)
	}
	if st.Cells != 10 {
		t.Errorf("cells %v, want 10", st.Cells)
	}
	if st.Busy != 0 || st.QueueDepth != 0 {
		t.Errorf("pool not drained: busy %d, queued %d", st.Busy, st.QueueDepth)
	}
	if st.BusySeconds < 0 {
		t.Errorf("busy seconds %v negative", st.BusySeconds)
	}
}

// TestMapRaceStress hammers one shared pool with many tiny cells from
// several goroutines; run under -race it checks the slot/slice/metric
// plumbing for data races.
func TestMapRaceStress(t *testing.T) {
	p := NewPool(8, nil)
	var wg sync.WaitGroup
	for m := 0; m < 6; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Map(context.Background(), p, Job{Cells: 2000, Seed: int64(m)}, func(_ context.Context, c Cell) (int64, error) {
				return c.Rand().Int63(), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range res {
				if want := (Cell{Index: i, Seed: DeriveSeed(int64(m), i)}).Rand().Int63(); v != want {
					t.Errorf("map %d cell %d = %d, want %d", m, i, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunCellAllocFree: a cell's pool bookkeeping (its slot, the gauges
// and the panic capture) allocates nothing, traced or not, so a sweep's
// per-cell cost is the cell's own work. A traced cell's span comes from
// the tracer's pool; the check runs in a long-lived trace's steady state,
// as obs.TestSpanCycleAllocFree does.
func TestRunCellAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := NewPool(1, obs.NewRegistry())
	fn := func(_ context.Context, c Cell) (int, error) { return c.Index, nil }
	root := obs.NewTracer(1).StartTrace("sweep")
	for i := 0; i < 5000; i++ {
		root.StartChild("warm").End()
	}
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"untraced", context.Background()},
		{"traced", obs.ContextWithSpan(context.Background(), root)},
	} {
		var out int
		var err error
		n := testing.AllocsPerRun(1000, func() { err = runCell(c.ctx, p, Cell{Index: 12345, Seed: 5}, &out, fn) })
		if err != nil || out != 12345 {
			t.Fatalf("%s: runCell = %v, out %d", c.name, err, out)
		}
		if n != 0 {
			t.Errorf("%s: runCell allocates %v times per cell", c.name, n)
		}
	}
}

// TestRunCellCancelledSpan: a traced cell whose context ends while it
// waits for a pool slot records one "cell" span, annotated as cancelled.
func TestRunCellCancelledSpan(t *testing.T) {
	p := NewPool(1, obs.NewRegistry())
	p.slots <- struct{}{} // the pool's one slot is busy
	tr := obs.NewTracer(1)
	root := tr.StartTrace("sweep")
	ctx, cancel := context.WithCancel(obs.ContextWithSpan(context.Background(), root))
	cancel()
	_, err := One(ctx, p, func(context.Context) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("One = %v, want context.Canceled", err)
	}
	<-p.slots
	id := root.TraceID()
	root.End()
	var cells []string
	for _, sd := range tr.Trace(id).Spans() {
		if sd.Name != "cell" {
			continue
		}
		outcome := ""
		for _, a := range sd.Annots[:sd.NAnn] {
			if a.Key == "outcome" {
				outcome = a.Str
			}
		}
		cells = append(cells, outcome)
	}
	if len(cells) != 1 || cells[0] != "cancelled" {
		t.Errorf("cell span outcomes %q, want one \"cancelled\"", cells)
	}
	if q := p.Stats().QueueDepth; q != 0 {
		t.Errorf("queue depth %d after the cancelled cell, want 0", q)
	}
}
