package core

import "repro/internal/platform"

// victimKey is one run in a victimHeap: its expected completion time,
// priority and task ID, which place it in victimBefore order, and the
// task's time on the other class, which decides whether an idle worker
// of that class would finish it in time. It holds no pointers, so moving
// keys costs no write barriers.
type victimKey struct {
	estEnd float64
	prio   float64
	other  float64
	id     int
	worker int
}

// before is victimBefore over keys: decreasing EstEnd, then higher
// priority, then smaller task ID.
func (a *victimKey) before(b *victimKey) bool {
	if a.estEnd != b.estEnd {
		return a.estEnd > b.estEnd
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

// victimSlot is one slot of a victimClass. Its two fields are unrelated:
// slots[i].key is the class's i-th key, and slots[i].pos is the index of
// the key of the class's i-th worker, or -1 while that worker is idle or
// its run was dropped. A class holds at most one key per worker, so both
// fit in one array, and the heap costs one allocation per schedule.
type victimSlot struct {
	key victimKey
	pos int
}

// victimClass holds the runs on one class's workers, the workers lo,
// lo+1, ...: keys 0..n-1 are a binary heap whose root comes first in
// victimBefore order, and keys n..n+pend-1 are the batch of runs started
// since the last pick, not yet ordered.
type victimClass struct {
	slots   []victimSlot
	lo      int
	n, pend int
}

func (c *victimClass) key(i int) *victimKey { return &c.slots[i].key }

func (c *victimClass) pos(w int) *int { return &c.slots[w-c.lo].pos }

// victimHeap is HeteroPrio's spoliation candidates: for each class, the
// runs on its workers in victimBefore order, so an idle worker of the
// other class finds its victim at the top instead of scanning every run.
//
// It orders lazily, like Queue. A start appends the run to its class's
// pending batch and a completion or abort removes the run from wherever
// it sits, so a run that starts and ends between two picks costs O(1);
// only a pick sifts the batch into the heap.
//
// A pick drops the tops that fail PickVictim's test now+t < EstEnd-eps
// until one passes. Dropping is exact: Now never decreases and EstEnd, t
// and eps are fixed, so a run that fails once fails at every later pick,
// and victimBefore is strict and total, so the first top that passes is
// the run PickVictim would pick. A failed attempt therefore costs O(1)
// amortized.
type victimHeap [platform.NumKinds]victimClass

// newVictimHeap returns an empty heap for pl, with room in every class
// for one run per worker, so the hooks never grow it.
func newVictimHeap(pl platform.Platform) victimHeap {
	slots := make([]victimSlot, pl.Workers())
	for i := range slots {
		slots[i].pos = -1
	}
	var v victimHeap
	for kind := range platform.NumKinds {
		lo, hi := pl.KindRange(platform.Kind(kind))
		v[kind] = victimClass{slots: slots[lo:hi:hi], lo: lo}
	}
	return v
}

// start records t, just started on worker w of class kind with expected
// completion estEnd, in kind's pending batch.
func (v *victimHeap) start(w int, kind platform.Kind, t platform.Task, estEnd float64) {
	c := &v[kind]
	i := c.n + c.pend
	*c.key(i) = victimKey{estEnd: estEnd, prio: t.Priority, other: t.Time(kind.Other()), id: t.ID, worker: w}
	*c.pos(w) = i
	c.pend++
}

// remove forgets the run on worker w of class kind, which completed or
// was aborted. A run in the heap leaves it as in any indexed heap; one in
// the pending batch is replaced by the batch's last key.
func (v *victimHeap) remove(w int, kind platform.Kind) {
	c := &v[kind]
	i := *c.pos(w)
	if i < 0 {
		return
	}
	if i < c.n {
		c.removeAt(i)
	} else {
		c.pend--
		c.move(c.n+c.pend, i)
	}
	*c.pos(w) = -1
}

// pick returns the worker whose run an idle worker of class kind
// spoliates at time now, or -1: the first run on the other class in
// victimBefore order that the idle worker would finish more than eps
// before its EstEnd. It sifts the pending batch into the heap, then drops
// the tops that fail the test.
func (v *victimHeap) pick(kind platform.Kind, now, eps float64) int {
	c := &v[kind.Other()]
	for ; c.pend > 0; c.pend-- {
		c.n++
		c.siftUp(c.n - 1)
	}
	for c.n > 0 {
		top := c.key(0)
		if now+top.other < top.estEnd-eps {
			return top.worker
		}
		v.remove(top.worker, kind.Other())
	}
	return -1
}

// removeAt deletes heap node i: the last heap node takes its place and
// moves up or down, and the last pending key takes the freed slot at the
// heap's end.
func (c *victimClass) removeAt(i int) {
	c.n--
	last := c.n
	if i != last {
		c.move(last, i)
	}
	if c.pend > 0 {
		c.move(last+c.pend, last)
	}
	if i != last && !c.siftUp(i) {
		c.siftDown(i)
	}
}

// move copies key from to index to.
func (c *victimClass) move(from, to int) {
	k := c.key(to)
	*k = *c.key(from)
	*c.pos(k.worker) = to
}

// siftUp moves heap node i towards the root while it comes before its
// parent, and reports whether it moved.
func (c *victimClass) siftUp(i int) bool {
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !c.key(i).before(c.key(parent)) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
	return i != start
}

// siftDown moves heap node i towards the leaves while a child comes
// before it.
func (c *victimClass) siftDown(i int) {
	for {
		child := 2*i + 1
		if child >= c.n {
			return
		}
		if right := child + 1; right < c.n && c.key(right).before(c.key(child)) {
			child = right
		}
		if !c.key(child).before(c.key(i)) {
			return
		}
		c.swap(i, child)
		i = child
	}
}

func (c *victimClass) swap(i, j int) {
	a, b := c.key(i), c.key(j)
	*a, *b = *b, *a
	*c.pos(a.worker) = i
	*c.pos(b.worker) = j
}
