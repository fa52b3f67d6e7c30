// Package engine is the parallel experiment runner: a fixed-width worker
// pool (Pool) and a deterministic fan-out primitive (Map) that spreads
// independent experiment cells across goroutines while keeping the output
// byte-identical to a sequential run.
//
// The paper's sweeps are embarrassingly parallel — every (instance, seed,
// algorithm) cell is a pure function of the task durations — as long as
// two rules hold, and the package enforces both by construction:
//
//   - per-cell randomness is derived from the cell's index (Cell.Seed via
//     DeriveSeed, a splitmix64 mix of the job seed and the index), never
//     drawn from a *rand.Rand shared across cells, so the work a cell does
//     is independent of scheduling order;
//   - reduction is ordered: Map writes each cell's result into a slot
//     preallocated at the cell's index and returns only when every cell
//     has finished, so callers see results in input order regardless of
//     completion order.
//
// The pool bounds in-flight cells globally (concurrent Maps sharing a
// Pool never run more than its width of cells at once), honors context
// cancellation, and converts a worker panic into a *PanicError carrying
// the offending cell's identity. Pool metrics (busy workers, queue depth,
// cells completed, busy seconds) are registered in an internal/obs
// Registry.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Cell identifies one unit of work inside a Map call.
type Cell struct {
	// Index is the cell's position in the job, 0-based. Results are
	// delivered in index order.
	Index int
	// Seed is the cell's private RNG seed, derived deterministically from
	// the job seed and Index. Two cells of one job never share a seed
	// stream.
	Seed int64
}

// Rand returns a fresh deterministic source for the cell. Call it inside
// the cell function: a *rand.Rand must never cross a goroutine boundary
// (one shared across cells is a data race, which internal/expr's tests
// report under -race).
func (c Cell) Rand() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// DeriveSeed maps (base, index) to a well-mixed per-cell seed using the
// splitmix64 finalizer. Adjacent indices yield unrelated seeds, so cells
// that feed them to rand.NewSource get independent-looking streams.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// PanicError is a worker panic converted into an error, carrying the
// identity of the offending cell and the panicking goroutine's stack.
type PanicError struct {
	Cell  Cell
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: cell %d (seed %d) panicked: %v", e.Cell.Index, e.Cell.Seed, e.Value)
}

// Metric names of the pool catalog, mirroring the scheduler catalog in
// internal/obs (one spelling, referenced by dashboards and tests).
const (
	MetricPoolWorkers     = "hp_pool_workers"
	MetricPoolBusy        = "hp_pool_busy_workers"
	MetricPoolQueueDepth  = "hp_pool_queue_depth"
	MetricPoolCells       = "hp_pool_cells_total"
	MetricPoolBusySeconds = "hp_pool_cell_busy_seconds_total"
)

// Pool is a fixed-width worker pool. The width bounds the number of cells
// executing at any instant across every concurrent Map call sharing the
// pool, so a server can hand one pool to all its requests without
// oversubscribing the machine. A Pool is safe for concurrent use and has
// no Close: it holds no goroutines of its own (Map spawns and joins its
// workers per call).
type Pool struct {
	width int
	slots chan struct{}

	workers     *obs.Gauge
	busy        *obs.Gauge
	queueDepth  *obs.Gauge
	cells       *obs.Counter
	busySeconds *obs.Counter
}

// NewPool returns a pool of the given width; width <= 0 means
// runtime.GOMAXPROCS(0). Metrics are registered in reg, or in a private
// registry when reg is nil (still readable via Stats).
func NewPool(width int, reg *obs.Registry) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pool{
		width: width,
		slots: make(chan struct{}, width),
		workers: reg.Gauge(MetricPoolWorkers,
			"Width of the experiment worker pool (max in-flight cells)."),
		busy: reg.Gauge(MetricPoolBusy,
			"Workers currently executing an experiment cell."),
		queueDepth: reg.Gauge(MetricPoolQueueDepth,
			"Cells admitted to a Map call but not yet executing."),
		cells: reg.Counter(MetricPoolCells,
			"Experiment cells completed (including failed cells)."),
		busySeconds: reg.Counter(MetricPoolBusySeconds,
			"Cumulative wall-clock seconds spent executing cells; with hp_pool_cells_total this yields cells/sec."),
	}
	p.workers.Set(float64(width))
	return p
}

// Width returns the pool's worker count.
func (p *Pool) Width() int { return p.width }

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	Width       int
	Busy        int
	QueueDepth  int
	Cells       float64
	BusySeconds float64
}

// Stats snapshots the pool metrics.
func (p *Pool) Stats() Stats {
	return Stats{
		Width:       p.width,
		Busy:        int(p.busy.Value()),
		QueueDepth:  int(p.queueDepth.Value()),
		Cells:       p.cells.Value(),
		BusySeconds: p.busySeconds.Value(),
	}
}

var defaultPool struct {
	once sync.Once
	p    *Pool
}

// Default returns the process-wide shared pool, sized GOMAXPROCS and
// created on first use, for callers that do not size a pool of their own.
func Default() *Pool {
	defaultPool.once.Do(func() { defaultPool.p = NewPool(0, nil) })
	return defaultPool.p
}

// Job describes one Map fan-out.
type Job struct {
	// Cells is the number of cells; Map calls fn once per index in
	// [0, Cells).
	Cells int
	// Seed is the base seed cell seeds are derived from. Jobs that use no
	// randomness can leave it zero.
	Seed int64
	// MaxParallel caps this job's own concurrency below the pool width
	// (<= 0 means the pool width). A server uses it to stop one request
	// from monopolizing the shared pool.
	MaxParallel int
}

// Map runs fn for every cell of the job on the pool and returns the
// results in cell order — byte-identical to running the cells
// sequentially, whatever the pool width. On error it returns the failing
// cell's error (preferring the lowest-index cell that genuinely failed
// over cells cut short by the resulting cancellation) and cancels the
// remaining cells. A panicking cell surfaces as a *PanicError instead of
// crashing the process.
func Map[T any](ctx context.Context, p *Pool, job Job, fn func(ctx context.Context, c Cell) (T, error)) ([]T, error) {
	n := job.Cells
	if n < 0 {
		return nil, fmt.Errorf("engine: negative cell count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	width := p.width
	if job.MaxParallel > 0 && job.MaxParallel < width {
		width = job.MaxParallel
	}
	if n < width {
		width = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	p.queueDepth.Add(float64(n))
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runCell(ctx, p, Cell{Index: i, Seed: DeriveSeed(job.Seed, i)}, &results[i], fn)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// Prefer the lowest-index genuine failure: cells cancelled because an
	// earlier-dispatched (but higher-index) cell failed would otherwise
	// mask the real error with context.Canceled.
	var firstErr error
	for _, err := range errs {
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		firstErr = err
		break
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// One submits a single function to the pool as a one-cell job: it waits
// for a pool slot (honoring ctx while waiting), runs fn with panic
// capture, and maintains the pool metrics. It is the context-aware submit
// path hpserve uses for single-schedule requests, so every simulation —
// fan-out or not — shows up in hp_pool_cells_total and respects the
// pool's global concurrency bound.
func One[T any](ctx context.Context, p *Pool, fn func(ctx context.Context) (T, error)) (T, error) {
	res, err := Map(ctx, p, Job{Cells: 1},
		func(ctx context.Context, _ Cell) (T, error) { return fn(ctx) })
	if err != nil {
		var zero T
		return zero, err
	}
	return res[0], nil
}

// runCell takes a pool slot, executes one cell with panic capture, and
// maintains the pool metrics. The queue-depth gauge counts the cell until
// it starts (or is abandoned to cancellation). When ctx carries a trace
// span, the cell gets a child span (covering slot wait + execution)
// annotated with its index and derived seed. TestRunCellAllocFree checks
// that this bookkeeping allocates nothing, traced or not.
func runCell[T any](ctx context.Context, p *Pool, c Cell, out *T, fn func(ctx context.Context, c Cell) (T, error)) error {
	csp := obs.SpanFromContext(ctx).StartChild("cell")
	defer csp.End()
	csp.AnnotateInt("cell_index", int64(c.Index))
	csp.AnnotateInt("cell_seed", c.Seed)
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.queueDepth.Add(-1)
		csp.Annotate("outcome", "cancelled")
		return ctx.Err()
	}
	p.queueDepth.Add(-1)
	p.busy.Add(1)
	start := time.Now()
	err := capture(ctx, c, out, fn)
	p.busySeconds.Add(time.Since(start).Seconds())
	p.busy.Add(-1)
	p.cells.Inc()
	<-p.slots
	return err
}

// capture invokes fn, converting a panic into a *PanicError.
func capture[T any](ctx context.Context, c Cell, out *T, fn func(ctx context.Context, c Cell) (T, error)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Cell: c, Value: v, Stack: debug.Stack()}
		}
	}()
	var res T
	res, err = fn(ctx, c)
	if err == nil {
		*out = res
	}
	return err
}
