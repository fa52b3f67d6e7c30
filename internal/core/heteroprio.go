// Package core implements HeteroPrio, the paper's primary contribution: an
// affinity-based list scheduling algorithm with spoliation for platforms
// made of two unrelated resource classes (CPUs and GPUs).
//
// Algorithm 1 of the paper, for a set of independent tasks:
//
//  1. Sort ready tasks in a queue Q by non-increasing acceleration factor
//     rho = p/q.
//  2. When a worker becomes idle, it removes a task from the beginning of Q
//     if it is a GPU worker, from the end otherwise, and starts processing
//     it.
//  3. If Q is empty, the idle worker considers the tasks running on the
//     other resource class in decreasing order of their expected completion
//     time; if it could finish one of them strictly earlier than its
//     current expected completion time, that task is spoliated: the victim
//     run is aborted (all progress lost) and the task restarts on the idle
//     worker.
//
// The DAG variant applies the same rule to the set of currently ready
// tasks, inserting tasks into Q as their predecessors complete; priorities
// (typically bottom levels, Section 6.2) break acceleration-factor ties and
// select among equal-completion-time spoliation victims.
package core

import (
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Options configures a HeteroPrio run. The zero value is the paper's
// algorithm with spoliation enabled and priority tie-breaking off.
type Options struct {
	// DisableSpoliation turns spoliation off, leaving a pure double-ended
	// list scheduler. Used for the ablation study: without spoliation the
	// algorithm has no bounded approximation ratio (Section 3).
	DisableSpoliation bool
	// UsePriorities applies the paper's priority tie-break when ordering
	// the queue: among tasks with equal acceleration factor, highest
	// priority first when rho >= 1 and last when rho < 1.
	UsePriorities bool
	// ActualTime, if non-nil, gives the actual execution duration of a
	// task on a class, which may differ from the nominal processing time
	// the scheduler bases its decisions on (estimation-noise
	// experiments). Nil means actual == nominal.
	ActualTime func(t platform.Task, k platform.Kind) float64
	// TransferDelay, if positive, models data movement in DAG mode: a
	// task whose predecessor executed on the other resource class may not
	// start on a worker before the predecessor's completion plus this
	// delay; the worker blocks (occupied) until the transfer finishes.
	// Schedules produced with a transfer delay validate with
	// sim.Schedule.ValidateRelaxed (runs appear longer than nominal).
	TransferDelay float64
	// Observer, if non-nil, receives live scheduling events (task queued /
	// started / spoliated / completed, worker-idle and queue-depth
	// samples) at each simulated-clock decision point. Every emission site
	// is guarded on the nil default, so a disabled observer adds zero
	// allocations and zero calls to the scheduling loop (guarded by
	// BenchmarkScheduleIndependent and TestObserverNopZeroAlloc).
	Observer obs.Observer
}

func (o Options) actual(t platform.Task, k platform.Kind) float64 {
	if o.ActualTime == nil {
		return t.Time(k)
	}
	return o.ActualTime(t, k)
}

// DefaultEps is the spoliation margin of every HeteroPrio run, simulated
// or live: a task is spoliated only if the new completion time improves
// on the current one by more than DefaultEps.
const DefaultEps = 1e-9

// Result is the outcome of a HeteroPrio run.
type Result struct {
	// Schedule is the final schedule S_HP, including aborted runs. With
	// Options.DisableSpoliation it is S_HP^NS, the list schedule the
	// paper's analysis compares S_HP against.
	Schedule *sim.Schedule
	// TFirstIdle is the first time any worker was idle while unfinished
	// tasks remained; +Inf if no worker was ever idle before the end.
	TFirstIdle float64
	// Spoliations is the number of aborted (spoliated) runs in Schedule.
	Spoliations int
}

// Makespan returns the makespan of the final schedule.
func (r Result) Makespan() float64 { return r.Schedule.Makespan() }

// Queue is HeteroPrio's double-ended ready queue, ordered by non-increasing
// acceleration factor with optional priority tie-breaks and stable
// insertion order. GPU workers pop from the front, CPU workers from the
// back. It is exported for reuse by custom policies.
//
// The order is materialized lazily. Push appends the task and a compact
// sort key in O(1); the first pop after a batch of pushes orders the k
// keys pushed since the previous pop and merges them into the ordered
// run in O(k + n) for n queued keys; pops then take the head or the tail
// of the run in O(1). A batch of at least radixMinBatch keys without the
// priority tie-break is ordered by a stable radix sort on the
// acceleration factor's bits in O(k), any other batch by a comparison
// sort in O(k log k). Because keyBefore is a strict total order (seq is
// unique), the pop sequence is the same as with an insertion-ordered
// queue.
type Queue struct {
	// run holds the ordered keys; run[head:] are queued.
	run  []queueKey
	head int
	// pend holds the keys pushed since the last pop, unordered.
	pend []queueKey
	// tasks holds the queued tasks at the slots their keys name; free
	// lists the slots popped since the queue last emptied.
	tasks   []platform.Task
	free    []int32
	usePrio bool
	seq     int
}

// NewQueue returns an empty queue; usePrio enables the paper's priority
// tie-break among equal acceleration factors.
func NewQueue(usePrio bool) *Queue { return &Queue{usePrio: usePrio} }

// newQueueCap returns an empty queue with room for n pushes before the
// first pop, so filling it with a known batch never regrows its buffers.
// When that batch would be radix-sorted, the run's array, which the sort
// uses as its second buffer, is sized with it in the same allocation.
func newQueueCap(usePrio bool, n int) Queue {
	q := Queue{usePrio: usePrio, tasks: make([]platform.Task, 0, n)}
	if usePrio || n < radixMinBatch {
		q.pend = make([]queueKey, 0, n)
		return q
	}
	keys := make([]queueKey, 2*n)
	q.pend, q.run = keys[:0:n], keys[n:n]
	return q
}

// queueKey is what the queue sorts: pointer-free, so moving keys costs no
// write barriers, and 32 bytes against a platform.Task's 48.
type queueKey struct {
	accel float64
	prio  float64
	seq   int
	slot  int32
}

// keyBefore reports whether a precedes b in queue order (front first);
// usePrio applies the priority tie-break.
func keyBefore(a, b queueKey, usePrio bool) bool {
	if a.accel != b.accel {
		return a.accel > b.accel
	}
	//hplint:allow floateq priorities are copied inputs, not derived floats; != only routes equal-priority pairs to the stable seq tie-break
	if usePrio && a.prio != b.prio {
		if a.accel >= 1 {
			return a.prio > b.prio
		}
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return len(q.run) - q.head + len(q.pend) }

// Push queues t in O(1); the order is established at the next pop.
func (q *Queue) Push(t platform.Task) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.tasks[slot] = t
	} else {
		slot = int32(len(q.tasks))
		q.tasks = append(q.tasks, t)
	}
	q.pend = append(q.pend, queueKey{accel: t.Accel(), prio: t.Priority, seq: q.seq, slot: slot})
	q.seq++
}

// PopFront removes and returns the highest-acceleration task (GPU side).
func (q *Queue) PopFront() platform.Task {
	if len(q.pend) > 0 {
		q.flush()
	}
	slot := q.run[q.head].slot
	q.head++
	return q.take(slot)
}

// PopBack removes and returns the lowest-acceleration task (CPU side).
func (q *Queue) PopBack() platform.Task {
	if len(q.pend) > 0 {
		q.flush()
	}
	last := len(q.run) - 1
	slot := q.run[last].slot
	q.run = q.run[:last]
	return q.take(slot)
}

// take returns the task in slot, just unqueued, and frees the slot. The
// pending batch is empty here, so an empty run means an empty queue and
// every slot can be reused.
func (q *Queue) take(slot int32) platform.Task {
	t := q.tasks[slot]
	if q.head == len(q.run) {
		q.run, q.head = q.run[:0], 0
		q.tasks, q.free = q.tasks[:0], q.free[:0]
		return t
	}
	if len(q.free) == cap(q.free) {
		// At most len(tasks)-1 slots are free while a task is queued, so
		// sizing to the task slots makes this one allocation per growth
		// of the slots, not one per doubling of the free list.
		free := make([]int32, len(q.free), cap(q.tasks))
		copy(free, q.free)
		q.free = free
	}
	q.free = append(q.free, slot)
	return t
}

// flush orders the pending batch and merges it into the ordered run.
func (q *Queue) flush() {
	n, k := len(q.run)-q.head, len(q.pend)
	radix := k >= radixMinBatch && !q.usePrio
	// Make room for the batch after the run: the merge needs it, and a
	// radix sort uses it as its second buffer.
	if (n > 0 || radix) && q.head+n+k > cap(q.run) {
		if n+k <= cap(q.run)/2 {
			// Most of the array is popped front space: slide down.
			copy(q.run, q.run[q.head:])
			q.run = q.run[:n]
		} else {
			run := make([]queueKey, n, 2*(n+k))
			copy(run, q.run[q.head:])
			q.run = run
		}
		q.head = 0
	}
	var tail []queueKey
	inTail, sorted := false, false
	if radix {
		tail = q.run[len(q.run) : len(q.run)+k]
		inTail, sorted = radixSortKeys(q.pend, tail)
	}
	if !sorted {
		if q.usePrio {
			slices.SortFunc(q.pend, compareKeysPrio)
		} else {
			slices.SortFunc(q.pend, compareKeys)
		}
	}
	if n == 0 {
		if inTail {
			q.run, q.pend = q.run[:len(q.run)+k], q.pend[:0]
			return
		}
		// The sorted batch becomes the run; the old run's array becomes
		// the next batch.
		q.run, q.head, q.pend = q.pend, 0, q.run[:0]
		return
	}
	if inTail {
		// The merge below would overwrite the batch's front before
		// reading it.
		copy(q.pend, tail)
	}
	// Merge from the back, so each run key moves at most once and only
	// the keys that order after the batch's first key move at all.
	i := len(q.run) - 1
	q.run = q.run[:len(q.run)+k]
	for j, w := k-1, len(q.run)-1; j >= 0; w-- {
		if i >= q.head && keyBefore(q.pend[j], q.run[i], q.usePrio) {
			q.run[w] = q.run[i]
			i--
		} else {
			q.run[w] = q.pend[j]
			j--
		}
	}
	q.pend = q.pend[:0]
}

// radixMinBatch is the smallest pending batch flush radix-sorts; below
// it the comparison sort is faster (BenchmarkQueueBatchSort; EXPERIMENTS.md,
// "Ordering by ρ").
const radixMinBatch = 256

// accelBitsMax is math.Float64bits(+Inf). Below it the bits of a
// non-negative float64 order like its value; above it lie −0, the
// negative numbers and the NaNs.
const accelBitsMax = 0x7FF0000000000000

// radixSortKeys orders keys, which must be in seq order, exactly as
// keyBefore without the priority tie-break orders them: a stable LSD
// radix sort, one byte at a time, on ^math.Float64bits(accel), which
// increases as the acceleration factor decreases. keys must not be
// empty; buf, of len(keys), is the second buffer; byte positions on
// which every key agrees cost no pass. inBuf reports whether the ordered keys ended in buf rather than
// in keys. ok is false, and keys are left as they were, if some factor
// is negative, −0 or NaN, whose bits do not order like their values (a
// validated task's factor lies in [+0, +Inf]).
func radixSortKeys(keys, buf []queueKey) (inBuf, ok bool) {
	var count [8][256]int
	for i := range keys {
		b := math.Float64bits(keys[i].accel)
		if b > accelBitsMax {
			return false, false
		}
		b = ^b
		for d := range count {
			count[d][byte(b>>(8*d))]++
		}
	}
	src, dst := keys, buf
	first := ^math.Float64bits(keys[0].accel)
	for d := range count {
		shift := 8 * d
		c := &count[d]
		if c[byte(first>>shift)] == len(keys) {
			continue
		}
		var sum int
		for v := range c {
			c[v], sum = sum, sum+c[v]
		}
		for i := range src {
			v := byte(^math.Float64bits(src[i].accel) >> shift)
			dst[c[v]] = src[i]
			c[v]++
		}
		src, dst = dst, src
		inBuf = !inBuf
	}
	return inBuf, true
}

// compareKeys and compareKeysPrio are keyBefore as the three-way
// comparison slices.SortFunc takes, without and with the priority
// tie-break; seq is unique, so only a key compared with itself is equal.
// They are package functions, not closures over the queue, so sorting
// allocates nothing.
func compareKeys(a, b queueKey) int { return cmpKeys(a, b, false) }

func compareKeysPrio(a, b queueKey) int { return cmpKeys(a, b, true) }

func cmpKeys(a, b queueKey, usePrio bool) int {
	switch {
	case a.seq == b.seq:
		return 0
	case keyBefore(a, b, usePrio):
		return -1
	}
	return 1
}

// ScheduleIndependent runs HeteroPrio (Algorithm 1) on a set of independent
// tasks. S_HP^NS, the paper's no-spoliation analysis object, is the
// schedule of the same call with Options.DisableSpoliation set.
func ScheduleIndependent(in platform.Instance, pl platform.Platform, opt Options) (Result, error) {
	if err := pl.Validate(); err != nil {
		return Result{}, err
	}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return runList(sim.Releases{Tasks: in}, pl, opt)
}

// ScheduleDAG runs the DAG variant of HeteroPrio: at any instant the
// algorithm of the independent case is applied to the set of currently
// ready tasks, and spoliation is attempted when an idle worker finds the
// queue empty.
func ScheduleDAG(g *dag.Graph, pl platform.Platform, opt Options) (Result, error) {
	if err := pl.Validate(); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	return runList(sim.Releases{Graph: g}, pl, opt)
}

// kindOrder is the class service order of a decision round: GPUs first,
// then CPUs (a CPU must never steal a high-affinity task from a GPU that
// frees up at the same instant). Package-level so the loop does not
// rebuild the slice every round.
var kindOrder = [platform.NumKinds]platform.Kind{platform.GPU, platform.CPU}

// listState is HeteroPrio as a sim.Run policy: the ρ queue, the
// spoliation rule and the transfer-delay bookkeeping. Its hooks are the
// scheduling hot path: beyond the amortized growth of the queue and of
// the recorded schedule they allocate nothing, and construction and setup
// stay in init. TestScheduleAllocsPerCall holds a whole call to a
// fixed allocation budget at every size.
type listState struct {
	k   *sim.Kernel
	q   Queue
	pl  platform.Platform
	opt Options
	o   obs.Observer

	// victims holds the runs idle workers may spoliate; it is built
	// only with spoliation enabled.
	victims victimHeap

	g *dag.Graph
	// classReady[id][k] is the earliest instant task id may start on class
	// k once ready (predecessor completion plus transfer delay when the
	// predecessor ran on the other class). Only tracked with a transfer
	// delay configured.
	classReady [][platform.NumKinds]float64

	tFirstIdle  float64
	spoliations int
}

// startDuration returns the actual occupation time of a run: the
// execution duration plus any transfer wait the worker blocks on.
func (s *listState) startDuration(t platform.Task, kind platform.Kind) float64 {
	d := s.opt.actual(t, kind)
	if s.classReady != nil {
		if wait := s.classReady[t.ID][kind] - s.k.Now; wait > 0 {
			d += wait
		}
	}
	return d
}

// victimBefore orders spoliation candidates: decreasing expected
// completion time, ties by higher priority, then by smaller task ID
// (deterministic, and the lever used by the adversarial worst-case
// instances). Running task IDs are unique, so the order is strict and
// total over any candidate set.
func victimBefore(a, b *sim.Running) bool {
	if a.EstEnd != b.EstEnd {
		return a.EstEnd > b.EstEnd
	}
	if a.Task.Priority != b.Task.Priority {
		return a.Task.Priority > b.Task.Priority
	}
	return a.Task.ID < b.Task.ID
}

// PickVictim returns the index in victims of the run an idle worker of
// class kind spoliates at time now, or -1 if there is none. A candidate
// qualifies if the worker would finish it more than eps before its
// expected completion EstEnd (the completion time the scheduler believes
// in: with perfect estimates it equals the true End; under estimation
// noise the true End is not observable). Among the qualifying runs the
// first in victimBefore order wins. Because that order is strict and
// total, one pass picks exactly the run that sorting the candidates and
// taking the first qualifying one would.
//
// PickVictim is the statement of the rule and the reference
// FuzzVictimHeapMatchesPickVictim holds the victimHeap to: HeteroPrio's
// runs, simulated or live, pick from the heap, so an attempt never scans
// the other class's runs. It does not allocate (TestPickVictimAllocFree).
func PickVictim(victims []sim.Running, now float64, kind platform.Kind, eps float64) int {
	best := -1
	for i := range victims {
		v := &victims[i]
		if now+v.Task.Time(kind) < v.EstEnd-eps && (best < 0 || victimBefore(v, &victims[best])) {
			best = i
		}
	}
	return best
}

// start begins task t on idle worker w of class kind and records the run
// as a spoliation candidate.
func (s *listState) start(w int, kind platform.Kind, t platform.Task, spoliation bool) {
	s.k.StartTimed(w, t, s.startDuration(t, kind), spoliation)
	// The kernel's Running.EstEnd, computed the same way.
	estEnd := s.k.Now + t.Time(kind)
	if !s.opt.DisableSpoliation {
		s.victims.start(w, kind, t, estEnd)
	}
	if s.o != nil {
		s.o.TaskStarted(s.k.Now, w, kind, t, estEnd, spoliation)
	}
}

// trySpoliate attempts a spoliation for idle worker w (queue known
// empty). Returns true if a task was restarted on w.
func (s *listState) trySpoliate(w int) bool {
	kind := s.pl.KindOf(w)
	victim := s.victims.pick(kind, s.k.Now, DefaultEps)
	if victim < 0 {
		return false
	}
	v := s.k.RunOf(victim)
	s.k.Abort(victim)
	s.victims.remove(victim, kind.Other())
	s.spoliations++
	if s.o != nil {
		s.o.TaskSpoliated(s.k.Now, victim, w, v.Task, s.k.Now-v.Start)
	}
	s.start(w, kind, v.Task, true)
	return true
}

// release queues a task that just became ready.
func (s *listState) release(t platform.Task) {
	s.q.Push(t)
	if s.o != nil {
		s.o.TaskQueued(s.k.Now, t, s.q.Len())
	}
}

// assign is one decision round: it fills idle workers from the queue and,
// once the queue is exhausted, attempts spoliations until no more progress
// is possible; then it records the first idle instant and the observer's
// samples (sim.Run calls it only while tasks remain). It never fails.
func (s *listState) assign() error {
	for {
		changed := false
		for w := s.k.NextIdle(platform.GPU, 0); w >= 0 && s.q.Len() > 0; w = s.k.NextIdle(platform.GPU, w+1) {
			s.start(w, platform.GPU, s.q.PopFront(), false)
			changed = true
		}
		for w := s.k.NextIdle(platform.CPU, 0); w >= 0 && s.q.Len() > 0; w = s.k.NextIdle(platform.CPU, w+1) {
			s.start(w, platform.CPU, s.q.PopBack(), false)
			changed = true
		}
		if s.q.Len() == 0 && !s.opt.DisableSpoliation {
			// Whether an attempt finds a victim depends only on the
			// worker's class, Now and the other class's runs, and a
			// failed attempt changes none of them: after the first
			// failure every later idle worker of the class fails too.
			for _, kind := range kindOrder {
				for w := s.k.NextIdle(kind, 0); w >= 0 && s.trySpoliate(w); w = s.k.NextIdle(kind, w+1) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	if s.k.NumBusy() < s.pl.Workers() && s.k.Now < s.tFirstIdle {
		s.tFirstIdle = s.k.Now
	}
	if s.o != nil {
		s.o.QueueDepthSample(s.k.Now, s.q.Len())
		for w := 0; w < s.pl.Workers(); w++ {
			if !s.k.Busy(w) {
				s.o.WorkerIdle(s.k.Now, w, s.pl.KindOf(w))
			}
		}
	}
	return nil
}

// complete retires one finished run: completion event and transfer-delay
// bookkeeping for its successors.
func (s *listState) complete(run sim.Running) {
	kind := s.pl.KindOf(run.Worker)
	if !s.opt.DisableSpoliation {
		s.victims.remove(run.Worker, kind)
	}
	if s.o != nil {
		s.o.TaskCompleted(s.k.Now, run.Worker, kind, run.Task, run.Start)
	}
	if s.classReady != nil {
		for _, succ := range s.g.Succs(run.Task.ID) {
			if run.End > s.classReady[succ][kind] {
				s.classReady[succ][kind] = run.End
			}
			if other := kind.Other(); run.End+s.opt.TransferDelay > s.classReady[succ][other] {
				s.classReady[succ][other] = run.End + s.opt.TransferDelay
			}
		}
	}
}

// init readies s to schedule the tasks src releases on a fresh kernel for
// pl. It fills a value rather than returning a pointer, so runList's
// state stays on its stack.
func (s *listState) init(src sim.Releases, pl platform.Platform, opt Options) {
	// Independent tasks are all queued at once. A graph's or an arrival
	// sequence's queue holds only the tasks ready at one instant: on the
	// factorizations from N=16 up, HeteroPrio-min's queue peaks at 1-15%
	// of the tasks (QR lowest), so it starts with room for an eighth and
	// grows past that.
	qcap := len(src.Tasks) + len(src.Arrivals)/8
	if src.Graph != nil {
		qcap = src.Graph.Len() / 8
	}
	*s = listState{
		k:          sim.NewKernel(pl),
		q:          newQueueCap(opt.UsePriorities, qcap),
		pl:         pl,
		opt:        opt,
		o:          opt.Observer,
		g:          src.Graph,
		tFirstIdle: math.Inf(1),
	}
	if !opt.DisableSpoliation {
		s.victims = newVictimHeap(pl)
	}
	if s.g != nil && opt.TransferDelay > 0 {
		s.classReady = make([][platform.NumKinds]float64, s.g.Len())
	}
}

// runList runs HeteroPrio on the tasks src releases: all at once, as a
// graph's tasks become ready, or at their release dates. Every completion
// at an instant is retired before the next decision round, so all workers
// that become idle at that instant see the same queue, with GPUs served
// first (otherwise a CPU could steal a high-affinity task from a GPU that
// frees up at the very same time).
func runList(src sim.Releases, pl platform.Platform, opt Options) (Result, error) {
	var s listState
	s.init(src, pl, opt)
	err := sim.Run(s.k, src, sim.Policy{Release: s.release, Assign: s.assign, Complete: s.complete, Batch: true})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Schedule:    s.k.Schedule(),
		TFirstIdle:  s.tFirstIdle,
		Spoliations: s.spoliations,
	}, nil
}
