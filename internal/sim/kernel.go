package sim

import (
	"fmt"
	"math"
	"math/bits"

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
// worker starts. Start, Abort and completion keep an idle bitset and a
// completion heap up to date, so neither a decision round (NextIdle) nor
// an event (CompleteNext) scans the platform.
type Kernel struct {
	P   platform.Platform
	Now float64

	// idle is a bitset over the workers: bit w%64 of idle[w/64] is set
	// while worker w is idle. Bits past the last worker stay clear.
	idle  []uint64
	runs  []Running // runs[w] is valid while worker w is busy
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
}

// NewKernel returns a kernel at time zero with all workers idle.
func NewKernel(pl platform.Platform) *Kernel {
	n := pl.Workers()
	// entry, heap and pos share one allocation.
	ints := make([]int, 3*n)
	k := &Kernel{
		P:     pl,
		idle:  make([]uint64, (n+63)/64),
		runs:  make([]Running, n),
		entry: ints[0*n : 1*n : 1*n],
		heap:  ints[1*n : 2*n : 2*n],
		pos:   ints[2*n : 3*n : 3*n],
		sched: &Schedule{Platform: pl},
	}
	for i := range k.idle {
		k.idle[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		k.idle[len(k.idle)-1] = 1<<r - 1
	}
	return k
}

// Schedule returns the trace recorded so far. It remains owned by the
// kernel until the simulation finishes.
func (k *Kernel) Schedule() *Schedule { return k.sched }

// Busy reports whether worker w is currently executing a task.
func (k *Kernel) Busy(w int) bool { return k.idle[w>>6]&(1<<(w&63)) == 0 }

// NumBusy returns the number of busy workers.
func (k *Kernel) NumBusy() int { return k.nBusy }

// RunOf returns the active run on worker w; it panics if w is idle.
func (k *Kernel) RunOf(w int) Running {
	if !k.Busy(w) {
		panic(fmt.Sprintf("sim: worker %d is idle", w))
	}
	return k.runs[w]
}

// NextIdle returns the first idle worker of class kind at index from or
// later, or -1 if there is none. It reads the idle bitset a word at a
// time, so it costs O(1 + words skipped), and
//
//	for w := k.NextIdle(kind, 0); w >= 0; w = k.NextIdle(kind, w+1)
//
// walks a class's idle workers in increasing index order, skipping busy
// workers 64 at a time.
func (k *Kernel) NextIdle(kind platform.Kind, from int) int {
	lo, hi := k.P.KindRange(kind)
	from = max(from, lo)
	if from >= hi {
		return -1
	}
	i := from >> 6
	word := k.idle[i] &^ (1<<(from&63) - 1)
	for word == 0 {
		i++
		if i<<6 >= hi {
			return -1
		}
		word = k.idle[i]
	}
	if w := i<<6 + bits.TrailingZeros64(word); w < hi {
		return w
	}
	return -1
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
	if k.Busy(w) {
		panic(fmt.Sprintf("sim: worker %d already busy with task %d", w, k.runs[w].Task.ID))
	}
	kind := k.P.KindOf(w)
	end := k.Now + actual
	k.idle[w>>6] &^= 1 << (w & 63)
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
	if !k.Busy(w) {
		panic(fmt.Sprintf("sim: abort on idle worker %d", w))
	}
	e := &k.sched.Entries[k.entry[w]]
	e.End = k.Now
	e.Aborted = true
	k.setIdle(w)
	if k.runs[w].End < math.Inf(1) {
		k.heapRemove(k.pos[w])
	}
	return k.runs[w].Task
}

// Finish ends the run on worker w at the current time: its entry ends at
// Now and the worker becomes idle. It is how a run started with an
// unbounded duration completes, once the executor driving the kernel,
// not the kernel's clock, learns that it ended. It returns the run, with
// End set to Now.
func (k *Kernel) Finish(w int) Running {
	if !k.Busy(w) {
		panic(fmt.Sprintf("sim: finish on idle worker %d", w))
	}
	r := &k.runs[w]
	if r.End < math.Inf(1) {
		k.heapRemove(k.pos[w])
	}
	r.End = k.Now
	k.sched.Entries[k.entry[w]].End = k.Now
	k.setIdle(w)
	return *r
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
	k.setIdle(w)
	return k.runs[w], true
}

// setIdle frees worker w.
func (k *Kernel) setIdle(w int) {
	k.idle[w>>6] |= 1 << (w & 63)
	k.nBusy--
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
