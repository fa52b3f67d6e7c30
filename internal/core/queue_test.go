package core

import (
	"math"
	"math/rand"
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

// maxBigBurstTasks bounds the tasks the big bursts of one FuzzQueueOrder
// input push, for the same reason.
const maxBigBurstTasks = 8 * radixMinBatch

// bigBurst draws the tasks of a big burst from a PRNG seeded by its op
// byte b: between radixMinBatch-1 and 2*radixMinBatch-1 of them, so the
// burst reaches flush's radix sort unless it is one short. Bits 2-3 of b
// pick the times:
//
//   - 0: CPU and GPU times in {1, 2, 4} (bit 4 of b clear) or {2, 3}
//     (set), so acceleration factors tie often and the radix sort
//     skips six digits and makes two passes, or skips one and makes
//     seven, ending in its second buffer;
//   - 1: times in {the smallest subnormal, 1, math.MaxFloat64}, so
//     factors reach +0 (by underflow), the subnormal range, and +Inf;
//   - 2: times uniform in [1, 101), so every radix digit varies;
//   - 3: CPU times in {-1, -0, +0, 1}: factors a validated task never
//     has (negative, -0), which the radix sort must hand back to the
//     comparison sort.
//
// Priorities are drawn from {+0, -0, 1, -1, +Inf, -Inf} in every mode.
func bigBurst(id int, b byte) []platform.Task {
	rng := rand.New(rand.NewSource(int64(b)))
	ties := []float64{1, 2, 4}
	if b&0x10 != 0 {
		ties = []float64{2, 3}
	}
	times := [][]float64{
		ties,
		{math.SmallestNonzeroFloat64, 1, math.MaxFloat64},
		nil,
		{-1, math.Copysign(0, -1), 0, 1},
	}[b>>2&3]
	prios := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1)}
	draw := func() float64 {
		if times == nil {
			return 1 + 100*rng.Float64()
		}
		return times[rng.Intn(len(times))]
	}
	tasks := make([]platform.Task, radixMinBatch-1+rng.Intn(radixMinBatch+1))
	for i := range tasks {
		tasks[i] = platform.Task{ID: id + i, CPUTime: draw(), Priority: prios[rng.Intn(len(prios))]}
		if b>>2&3 == 3 {
			tasks[i].GPUTime = float64(1 + rng.Intn(2))
		} else {
			tasks[i].GPUTime = draw()
		}
	}
	return tasks
}

// FuzzQueueOrder drives Queue and refQueue through the same interleaving
// of pushes, push bursts, PopFront and PopBack, with and without the
// priority tie-break, and requires the same popped task and the same
// Len() after every operation. The first byte picks UsePriorities; each
// following byte is an operation (low two bits) with an argument (the
// rest): 0 pushes one task, 1 pushes a burst, 2 pops the front, 3 pops
// the back. A burst byte below 0x80 pushes 1-16 tasks decoded from the
// next bytes; from 0x80 it pushes a big burst (bigBurst), until the
// input's big bursts reach maxBigBurstTasks. The queue is then drained
// from the front. Inputs are cut at maxQueueOps operations: the
// reference queue is quadratic, and longer inputs only slow the fuzzer.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		prio := data[0]&1 == 1
		q, ref := NewQueue(prio), &refQueue{prio: prio}
		id, big := 0, 0
		pushTask := func(tk platform.Task) {
			q.Push(tk)
			ref.push(tk)
		}
		push := func(b byte) {
			pushTask(queueTask(id, b))
			id++
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
				if b >= 0x80 {
					if tasks := bigBurst(id, b); big+len(tasks) <= maxBigBurstTasks {
						big += len(tasks)
						id += len(tasks)
						for _, tk := range tasks {
							pushTask(tk)
						}
					}
					break
				}
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
