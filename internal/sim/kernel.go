package sim

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// Running describes a task currently executing on a worker.
type Running struct {
	Worker int
	Task   platform.Task
	Start  float64
	// End is the actual completion time of the run (when the completion
	// event will fire).
	End float64
	// EstEnd is the completion time the scheduler believes in, computed
	// from the task's nominal processing time. It equals End unless the
	// run was started with StartTimed and a different actual duration
	// (estimation-noise experiments); policies must base spoliation
	// decisions on EstEnd, since a real scheduler never knows End.
	EstEnd float64
	// Spoliation marks runs started by a spoliation.
	Spoliation bool
}

// Kernel is the discrete-event core driving a simulation: it tracks worker
// occupancy, advances virtual time to completion events, and records every
// execution attempt into a Schedule. Scheduling policies (HeteroPrio,
// DualHP, ...) sit on top, driven by Run, and decide which task each idle
// worker starts.
type Kernel struct {
	P   platform.Platform
	Now float64

	busy  []bool
	runs  []Running // valid when busy[w]
	entry []int     // index into sched.Entries for the active run
	sched *Schedule
	nBusy int

	// heap is an indexed binary min-heap of the busy workers whose run
	// ends before +Inf, ordered by (End, worker index): heap[:nHeap] are
	// its nodes and pos[w] is worker w's node while it is in the heap.
	// The root is the next completion, with the smallest index first
	// among equal ends. A run that never ends before +Inf (an End that
	// overflowed, or NaN) stays out of the heap and never completes.
	heap  []int
	pos   []int
	nHeap int

	// Scratch buffers behind RunningOnShared/IdleWorkersShared: sized to
	// the worker count once, filled by index, never grown — the event
	// loops query occupancy every decision round and must not allocate.
	runScratch  []Running
	idleScratch []int
}

// NewKernel returns a kernel at time zero with all workers idle.
func NewKernel(pl platform.Platform) *Kernel {
	n := pl.Workers()
	// entry, idleScratch, heap and pos share one allocation.
	ints := make([]int, 4*n)
	return &Kernel{
		P:           pl,
		busy:        make([]bool, n),
		runs:        make([]Running, n),
		entry:       ints[0*n : 1*n : 1*n],
		heap:        ints[1*n : 2*n : 2*n],
		pos:         ints[2*n : 3*n : 3*n],
		idleScratch: ints[3*n : 4*n : 4*n],
		sched:       &Schedule{Platform: pl},
		runScratch:  make([]Running, n),
	}
}

// Schedule returns the trace recorded so far. It remains owned by the
// kernel until the simulation finishes.
func (k *Kernel) Schedule() *Schedule { return k.sched }

// Busy reports whether worker w is currently executing a task.
func (k *Kernel) Busy(w int) bool { return k.busy[w] }

// NumBusy returns the number of busy workers.
func (k *Kernel) NumBusy() int { return k.nBusy }

// RunningOnShared returns the runs currently active on workers of class
// kind, in increasing worker order. It does not allocate: the returned
// slice aliases a kernel-owned scratch buffer and is overwritten by the
// next call. Callers may reorder it in place but must not retain it
// across kernel calls.
//
//hplint:hotpath
func (k *Kernel) RunningOnShared(kind platform.Kind) []Running {
	lo, hi := k.P.KindRange(kind)
	n := 0
	for w := lo; w < hi; w++ {
		if k.busy[w] {
			k.runScratch[n] = k.runs[w]
			n++
		}
	}
	return k.runScratch[:n]
}

// RunOf returns the active run on worker w; it panics if w is idle.
func (k *Kernel) RunOf(w int) Running {
	if !k.busy[w] {
		panic(fmt.Sprintf("sim: worker %d is idle", w))
	}
	return k.runs[w]
}

// IdleWorkersShared returns the idle workers of class kind in increasing
// index order. It does not allocate: the returned slice aliases a
// kernel-owned scratch buffer and is overwritten by the next call.
//
//hplint:hotpath
func (k *Kernel) IdleWorkersShared(kind platform.Kind) []int {
	lo, hi := k.P.KindRange(kind)
	n := 0
	for w := lo; w < hi; w++ {
		if !k.busy[w] {
			k.idleScratch[n] = w
			n++
		}
	}
	return k.idleScratch[:n]
}

// Start begins executing task t on idle worker w at the current time,
// with the actual duration equal to the task's nominal processing time.
func (k *Kernel) Start(w int, t platform.Task, spoliation bool) {
	k.StartTimed(w, t, t.Time(k.P.KindOf(w)), spoliation)
}

// StartTimed begins executing task t on idle worker w with the given
// actual duration, which may differ from the nominal processing time
// (estimation-noise experiments). The recorded entry and the completion
// event use the actual duration; Running.EstEnd keeps the nominal one.
func (k *Kernel) StartTimed(w int, t platform.Task, actual float64, spoliation bool) {
	if k.busy[w] {
		panic(fmt.Sprintf("sim: worker %d already busy with task %d", w, k.runs[w].Task.ID))
	}
	kind := k.P.KindOf(w)
	end := k.Now + actual
	k.busy[w] = true
	k.nBusy++
	k.runs[w] = Running{
		Worker: w, Task: t, Start: k.Now, End: end,
		EstEnd: k.Now + t.Time(kind), Spoliation: spoliation,
	}
	if end < math.Inf(1) {
		k.heap[k.nHeap] = w
		k.pos[w] = k.nHeap
		k.nHeap++
		k.siftUp(k.nHeap - 1)
	}
	k.entry[w] = len(k.sched.Entries)
	//hplint:allow allocflow one trace entry per run attempt; the recorded schedule is the simulation's product
	k.sched.Entries = append(k.sched.Entries, Entry{
		TaskID:     t.ID,
		Worker:     w,
		Kind:       kind,
		Start:      k.Now,
		End:        end,
		Spoliation: spoliation,
	})
}

// Abort kills the run on worker w at the current time (spoliation victim).
// The recorded entry is truncated and marked aborted; the worker becomes
// idle immediately. It returns the aborted task.
func (k *Kernel) Abort(w int) platform.Task {
	if !k.busy[w] {
		panic(fmt.Sprintf("sim: abort on idle worker %d", w))
	}
	e := &k.sched.Entries[k.entry[w]]
	e.End = k.Now
	e.Aborted = true
	k.busy[w] = false
	k.nBusy--
	if k.runs[w].End < math.Inf(1) {
		k.heapRemove(k.pos[w])
	}
	return k.runs[w].Task
}

// NextCompletion returns the earliest completion time among busy workers,
// or +Inf when no run will complete (every worker idle, or every busy
// run ending at +Inf).
func (k *Kernel) NextCompletion() float64 {
	if k.nHeap == 0 {
		return math.Inf(1)
	}
	return k.runs[k.heap[0]].End
}

// CompleteNext advances time to the earliest completion event and retires
// that run, freeing its worker. Ties are broken by the smallest worker
// index so simulations are deterministic. It returns the completed run,
// or false when no run will complete (time does not advance in that
// case).
func (k *Kernel) CompleteNext() (Running, bool) {
	if k.nHeap == 0 {
		return Running{}, false
	}
	w := k.heap[0]
	k.heapRemove(0)
	k.Now = k.runs[w].End
	k.busy[w] = false
	k.nBusy--
	return k.runs[w], true
}

// completesBefore reports whether worker a's run completes before worker
// b's: earlier End first, then the smaller worker index.
func (k *Kernel) completesBefore(a, b int) bool {
	ra, rb := &k.runs[a], &k.runs[b]
	if ra.End != rb.End {
		return ra.End < rb.End
	}
	return a < b
}

// heapRemove deletes the node at heap index i: the last node takes its
// place and moves up or down to restore the heap order.
func (k *Kernel) heapRemove(i int) {
	k.nHeap--
	if i == k.nHeap {
		return
	}
	k.heap[i] = k.heap[k.nHeap]
	k.pos[k.heap[i]] = i
	if !k.siftUp(i) {
		k.siftDown(i)
	}
}

// siftUp moves the node at heap index i towards the root while it
// completes before its parent, and reports whether it moved.
func (k *Kernel) siftUp(i int) bool {
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !k.completesBefore(k.heap[i], k.heap[parent]) {
			break
		}
		k.heapSwap(i, parent)
		i = parent
	}
	return i != start
}

// siftDown moves the node at heap index i towards the leaves while a
// child completes before it.
func (k *Kernel) siftDown(i int) {
	for {
		child := 2*i + 1
		if child >= k.nHeap {
			return
		}
		if right := child + 1; right < k.nHeap && k.completesBefore(k.heap[right], k.heap[child]) {
			child = right
		}
		if !k.completesBefore(k.heap[child], k.heap[i]) {
			return
		}
		k.heapSwap(i, child)
		i = child
	}
}

func (k *Kernel) heapSwap(i, j int) {
	k.heap[i], k.heap[j] = k.heap[j], k.heap[i]
	k.pos[k.heap[i]] = i
	k.pos[k.heap[j]] = j
}
