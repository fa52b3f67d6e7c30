package core

import (
	"testing"

	"repro/internal/platform"
)

// refQueue is the reference ready queue: an ordered insert (binary search
// plus memmove) on every push, popped from both ends, with its own copy of
// the queue order. It is the obvious implementation, kept here as the
// oracle for Queue's lazily sorted one.
type refQueue struct {
	items []refItem
	prio  bool
	seq   int
}

type refItem struct {
	task  platform.Task
	accel float64
	seq   int
}

func (r *refQueue) before(a, b refItem) bool {
	if a.accel != b.accel {
		return a.accel > b.accel
	}
	if r.prio && a.task.Priority != b.task.Priority {
		if a.accel >= 1 {
			return a.task.Priority > b.task.Priority
		}
		return a.task.Priority < b.task.Priority
	}
	return a.seq < b.seq
}

func (r *refQueue) push(t platform.Task) {
	it := refItem{task: t, accel: t.Accel(), seq: r.seq}
	r.seq++
	lo, hi := 0, len(r.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.before(it, r.items[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r.items = append(r.items, refItem{})
	copy(r.items[lo+1:], r.items[lo:])
	r.items[lo] = it
}

func (r *refQueue) len() int { return len(r.items) }

func (r *refQueue) popFront() platform.Task {
	t := r.items[0].task
	r.items = r.items[1:]
	return t
}

func (r *refQueue) popBack() platform.Task {
	t := r.items[len(r.items)-1].task
	r.items = r.items[:len(r.items)-1]
	return t
}

// queueTask decodes one fuzz byte into a task with small integer times
// and priority, so acceleration-factor and priority ties are common.
func queueTask(id int, b byte) platform.Task {
	return platform.Task{
		ID:       id,
		CPUTime:  float64(1 + b%4),
		GPUTime:  float64(1 + (b>>2)%4),
		Priority: float64((b >> 4) % 4),
	}
}

// maxQueueOps bounds the operation bytes one FuzzQueueOrder input decodes.
const maxQueueOps = 2048

// FuzzQueueOrder drives Queue and refQueue through the same interleaving
// of pushes, push bursts, PopFront and PopBack, with and without the
// priority tie-break, and requires the same popped task and the same
// Len() after every operation. The first byte picks UsePriorities; each
// following byte is an operation (low two bits) with an argument (the
// rest): 0 pushes one task, 1 pushes a burst of 1-16 tasks decoded from
// the next bytes, 2 pops the front, 3 pops the back. The queue is then
// drained from the front. Inputs are cut at maxQueueOps operations: the
// reference queue is quadratic, and longer inputs only slow the fuzzer.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		prio := data[0]&1 == 1
		q, ref := NewQueue(prio), &refQueue{prio: prio}
		id := 0
		push := func(b byte) {
			tk := queueTask(id, b)
			id++
			q.Push(tk)
			ref.push(tk)
		}
		check := func(op int, got, want platform.Task) {
			t.Helper()
			if got.ID != want.ID {
				t.Fatalf("op %d: popped task %d, reference pops %d", op, got.ID, want.ID)
			}
		}
		data = data[1:min(len(data), 1+maxQueueOps)]
		for op := 0; op < len(data); op++ {
			b := data[op]
			switch b & 3 {
			case 0:
				push(b >> 2)
			case 1:
				n := 1 + int(b>>2)%16
				for ; n > 0 && op+1 < len(data); n-- {
					op++
					push(data[op])
				}
			case 2:
				if ref.len() > 0 {
					check(op, q.PopFront(), ref.popFront())
				}
			case 3:
				if ref.len() > 0 {
					check(op, q.PopBack(), ref.popBack())
				}
			}
			if q.Len() != ref.len() {
				t.Fatalf("op %d: Len() = %d, reference holds %d", op, q.Len(), ref.len())
			}
		}
		for op := len(data); ref.len() > 0; op++ {
			check(op, q.PopFront(), ref.popFront())
			if q.Len() != ref.len() {
				t.Fatalf("drain: Len() = %d, reference holds %d", q.Len(), ref.len())
			}
		}
	})
}
