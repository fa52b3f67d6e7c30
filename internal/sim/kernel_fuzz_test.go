package sim

import (
	"math"
	"testing"

	"repro/internal/platform"
)

// refKernel is the reference completion order: the linear scans over
// every worker that Kernel used before it kept a completion heap. It
// tracks occupancy only; it records no schedule.
type refKernel struct {
	p    platform.Platform
	now  float64
	busy []bool
	runs []Running
}

func newRefKernel(pl platform.Platform) *refKernel {
	return &refKernel{p: pl, busy: make([]bool, pl.Workers()), runs: make([]Running, pl.Workers())}
}

func (r *refKernel) startTimed(w int, t platform.Task, actual float64) {
	r.busy[w] = true
	r.runs[w] = Running{
		Worker: w, Task: t, Start: r.now, End: r.now + actual,
		EstEnd: r.now + t.Time(r.p.KindOf(w)),
	}
}

func (r *refKernel) abort(w int) platform.Task {
	r.busy[w] = false
	return r.runs[w].Task
}

func (r *refKernel) nextCompletion() float64 {
	next := math.Inf(1)
	for w, b := range r.busy {
		if b && r.runs[w].End < next {
			next = r.runs[w].End
		}
	}
	return next
}

func (r *refKernel) completeNext() (Running, bool) {
	best := -1
	bestEnd := math.Inf(1)
	for w, b := range r.busy {
		if b && r.runs[w].End < bestEnd {
			best, bestEnd = w, r.runs[w].End
		}
	}
	if best < 0 {
		return Running{}, false
	}
	r.now = bestEnd
	r.busy[best] = false
	return r.runs[best], true
}

// sameFloat compares bit patterns, so -0 and +0 differ and NaN equals
// itself: the heap must return the very values the scan returns.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRun(a, b Running) bool {
	return a.Worker == b.Worker && a.Task.ID == b.Task.ID && a.Spoliation == b.Spoliation &&
		sameFloat(a.Start, b.Start) && sameFloat(a.End, b.End) && sameFloat(a.EstEnd, b.EstEnd)
}

// maxKernelOps bounds the bytes one FuzzKernelCompletionOrder input
// decodes; longer inputs only slow the fuzzer.
const maxKernelOps = 4096

// kernelDuration decodes a run's actual duration: an integer 0-7, so runs
// on different workers often end at the same instant, or 1e308 for a
// byte of 0xf8 and above, so that a run started at Now >= 1e308 ends at
// +Inf (and must never complete).
func kernelDuration(b byte) float64 {
	if b >= 0xf8 {
		return 1e308
	}
	return float64(b & 7)
}

// kernelPlatform decodes the platform byte: CPUs in the low three bits,
// GPUs in the next three, and the top two bits add 57 to the CPUs (bit
// 6) and to the GPUs (bit 7). The small shapes fit in one word of the
// idle bitset; the wide ones put the class boundary or the last worker
// inside a word or exactly on a word's edge, as 63+2 (0x56), 64+1 (0x4f)
// and 64+64 (0xff) do.
func kernelPlatform(b byte) platform.Platform {
	cpus, gpus := int(b&7), int(b>>3&7)
	if b&0x40 != 0 {
		cpus += 57
	}
	if b&0x80 != 0 {
		gpus += 57
	}
	if cpus+gpus == 0 {
		cpus = 1
	}
	return platform.NewPlatform(cpus, gpus)
}

// FuzzKernelCompletionOrder drives Kernel and refKernel through the same
// interleaving of StartTimed, Abort, CompleteNext and NextCompletion and
// requires the same completed runs and next completion times, and the
// same Now, worker occupancy and NextIdle answers after every operation.
// The first byte is the platform (kernelPlatform). Each following byte is
// an operation (low two bits) with a worker argument (the rest): 0 starts
// a task on the first idle worker at or after the argument, with the
// duration kernelDuration decodes from the next byte; 1 aborts the first
// busy worker at or after the argument; 2 completes the next run; 3 reads
// the next completion time. The kernel is then drained, reading the next
// completion time before each completion.
func FuzzKernelCompletionOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		pl := kernelPlatform(data[0])
		nw := pl.Workers()
		k, ref := NewKernel(pl), newRefKernel(pl)
		// find returns the first worker at or after w, cyclically, whose
		// busy state is busy, or -1.
		find := func(w int, busy bool) int {
			for i := 0; i < nw; i++ {
				if v := (w + i) % nw; ref.busy[v] == busy {
					return v
				}
			}
			return -1
		}
		complete := func(op int) bool {
			t.Helper()
			got, gotOK := k.CompleteNext()
			want, wantOK := ref.completeNext()
			if gotOK != wantOK || (wantOK && !sameRun(got, want)) {
				t.Fatalf("op %d: CompleteNext() = %+v, %v; reference %+v, %v", op, got, gotOK, want, wantOK)
			}
			return wantOK
		}
		next := func(op int) {
			t.Helper()
			if got, want := k.NextCompletion(), ref.nextCompletion(); !sameFloat(got, want) {
				t.Fatalf("op %d: NextCompletion() = %v, reference %v", op, got, want)
			}
		}
		// want[w] is the first idle worker at or after w, by a backward
		// scan of the reference occupancy, before clamping to a class.
		want := make([]int, nw+1)
		check := func(op int) {
			t.Helper()
			if !sameFloat(k.Now, ref.now) {
				t.Fatalf("op %d: Now = %v, reference %v", op, k.Now, ref.now)
			}
			for w := 0; w < nw; w++ {
				if k.Busy(w) != ref.busy[w] {
					t.Fatalf("op %d: Busy(%d) = %v, reference %v", op, w, k.Busy(w), ref.busy[w])
				}
			}
			want[nw] = -1
			for w := nw - 1; w >= 0; w-- {
				want[w] = want[w+1]
				if !ref.busy[w] {
					want[w] = w
				}
			}
			for kind := range platform.NumKinds {
				lo, hi := pl.KindRange(platform.Kind(kind))
				for from := 0; from <= nw; from++ {
					exp := want[max(from, lo)]
					if from >= hi || exp >= hi {
						exp = -1
					}
					if got := k.NextIdle(platform.Kind(kind), from); got != exp {
						t.Fatalf("op %d: NextIdle(%v, %d) = %d, reference %d", op, platform.Kind(kind), from, got, exp)
					}
				}
			}
		}
		data = data[1:min(len(data), 1+maxKernelOps)]
		id := 0
		for op := 0; op < len(data); op++ {
			b := data[op]
			arg := int(b >> 2)
			switch b & 3 {
			case 0:
				if op+1 == len(data) {
					break
				}
				op++
				w := find(arg%nw, false)
				if w < 0 {
					break
				}
				tk := platform.Task{ID: id, CPUTime: 1, GPUTime: 2}
				id++
				d := kernelDuration(data[op])
				k.StartTimed(w, tk, d, false)
				ref.startTimed(w, tk, d)
			case 1:
				w := find(arg%nw, true)
				if w < 0 {
					break
				}
				if got, want := k.Abort(w), ref.abort(w); got.ID != want.ID {
					t.Fatalf("op %d: Abort(%d) returned task %d, reference %d", op, w, got.ID, want.ID)
				}
			case 2:
				complete(op)
			case 3:
				next(op)
			}
			check(op)
		}
		// Drain the way the event loops do: read the next completion
		// time, then complete.
		for op := len(data); ; op++ {
			next(op)
			if !complete(op) {
				break
			}
			check(op)
		}
	})
}
