package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// refVictimBefore is the victim order with its own copy of the rule:
// decreasing EstEnd, then higher priority, then smaller task ID.
func refVictimBefore(a, b sim.Running) bool {
	if a.EstEnd != b.EstEnd {
		return a.EstEnd > b.EstEnd
	}
	if a.Task.Priority != b.Task.Priority {
		return a.Task.Priority > b.Task.Priority
	}
	return a.Task.ID < b.Task.ID
}

// sortVictims is the reference victim sort: an in-place insertion sort
// by refVictimBefore.
func sortVictims(v []sim.Running) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && refVictimBefore(v[j], v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// refPickVictim is the reference spoliation pick: sort a copy of the
// candidates, take the first one the idle worker would finish more than
// eps before its EstEnd, and return its index in victims (or -1).
func refPickVictim(victims []sim.Running, now float64, kind platform.Kind, eps float64) int {
	sorted := append([]sim.Running(nil), victims...)
	sortVictims(sorted)
	for _, v := range sorted {
		if now+v.Task.Time(kind) < v.EstEnd-eps {
			for i := range victims {
				if victims[i].Worker == v.Worker {
					return i
				}
			}
		}
	}
	return -1
}

// boundaryTime returns a processing time d with now+d == target, or the
// nearest d found if rounding leaves no such value.
func boundaryTime(now, target float64) float64 {
	d := target - now
	for i := 0; i < 4 && now+d != target; i++ {
		if now+d < target {
			d = math.Nextafter(d, math.Inf(1))
		} else {
			d = math.Nextafter(d, math.Inf(-1))
		}
	}
	return d
}

// TestPickVictimMatchesSortFirstFit checks the one-pass victim pick
// against sorting the candidates and taking the first that qualifies, on
// seeded candidate sets of 0-600 runs, half of them under 8. EstEnds and
// priorities come from small integer sets, so both tie-breaks decide
// picks; a third of the candidates sit exactly on the strict-improvement
// threshold now + time = EstEnd - eps or one ulp on either side of it.
func TestPickVictimMatchesSortFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var picked, none [platform.NumKinds]int
	var onEdge [3]int
	for trial := 0; trial < 800; trial++ {
		// Half the sets are small, where a pick often finds no victim.
		n := rng.Intn(601)
		if trial%2 == 1 {
			n = rng.Intn(8)
		}
		kind := platform.Kind(rng.Intn(platform.NumKinds))
		now := float64(rng.Intn(40)) + []float64{0, 0.5, 0.1}[rng.Intn(3)]
		eps := []float64{1e-9, 0.25, 1e-3}[rng.Intn(3)]
		ids := rng.Perm(n)
		victims := make([]sim.Running, n)
		for i := range victims {
			tk := platform.Task{
				ID:       ids[i],
				CPUTime:  float64(1+rng.Intn(16)) / 2,
				GPUTime:  float64(1+rng.Intn(16)) / 2,
				Priority: float64(rng.Intn(3)),
			}
			estEnd := now + float64(1+rng.Intn(8))
			if edge := rng.Intn(9); edge < 3 {
				target := estEnd - eps
				switch edge {
				case 1:
					target = math.Nextafter(target, math.Inf(1))
				case 2:
					target = math.Nextafter(target, math.Inf(-1))
				}
				d := boundaryTime(now, target)
				if kind == platform.CPU {
					tk.CPUTime = d
				} else {
					tk.GPUTime = d
				}
				if now+d == target {
					onEdge[edge]++
				}
			}
			victims[i] = sim.Running{Worker: i, Task: tk, Start: now - 1, End: estEnd, EstEnd: estEnd}
		}
		got := PickVictim(victims, now, kind, eps)
		want := refPickVictim(victims, now, kind, eps)
		if got != want {
			t.Fatalf("trial %d (%d runs, now %v, eps %v, %v): PickVictim = %d, reference %d",
				trial, n, now, eps, kind, got, want)
		}
		if got >= 0 {
			picked[kind]++
		} else {
			none[kind]++
		}
	}
	for kind := range platform.NumKinds {
		if picked[kind] == 0 || none[kind] == 0 {
			t.Errorf("%v: %d trials picked a victim and %d none; the generator must give both", platform.Kind(kind), picked[kind], none[kind])
		}
	}
	for edge, c := range onEdge {
		if c == 0 {
			t.Errorf("no candidate landed on threshold case %d", edge)
		}
	}
}

// FuzzVictimHeapMatchesPickVictim drives a victimHeap through starts,
// completions, aborts and picks, and after every pick requires the worker
// PickVictim returns over the live runs of the class picked from. A
// picked run is then restarted on an idle worker of the picking class, as
// trySpoliate does.
//
// The first byte sets eps (bit 0: 0 or DefaultEps), the CPUs (bits 1-3,
// plus one) and the GPUs (bits 4-6, plus one). Each following byte is an
// operation (low two bits) with an argument (the rest):
//   - 0 starts a run on class arg&1, on its first idle worker at or after
//     arg>>1 (cyclically), from the next byte: EstEnd is now plus its low
//     three bits, or +Inf for 7, so EstEnds tie often; the priority is
//     bits 3-7 mod 3; the time on the other class is (1 + bits 5-7)/2.
//   - 1 completes the first busy worker at or after arg, cyclically, and
//     advances now to the run's EstEnd if that is later and finite.
//   - 2 aborts the first busy worker at or after arg, cyclically.
//   - 3 advances now by arg>>1&3, then picks for the first idle worker of
//     class arg&1, if it has one.
//
// now never decreases, as in sim.Run.
func FuzzVictimHeapMatchesPickVictim(f *testing.F) {
	// All EstEnds tied: the priority, then the task ID decide.
	f.Add([]byte{0x14, 0x00, 0x03, 0x00, 0x0b, 0x00, 0x03, 0x07, 0x07})
	// A run that fails at one pick and is still live at the next two, the
	// second of them later; then it completes.
	f.Add([]byte{0x13, 0x00, 0xe1, 0x00, 0x06, 0x07, 0x07, 0x0f, 0x01, 0x00, 0x05, 0x07})
	// Picks right after pending batches, one of them on a nonempty heap.
	f.Add([]byte{0x24, 0x04, 0x02, 0x04, 0x0d, 0x04, 0x45, 0x03, 0x04, 0x07, 0x00, 0x46, 0x03, 0x07})
	// +Inf EstEnds, tied on EstEnd, beside a finite one; then an abort.
	f.Add([]byte{0x15, 0x00, 0x07, 0x00, 0x0f, 0x00, 0x06, 0x07, 0x07, 0x0e, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		eps := 0.0
		if data[0]&1 != 0 {
			eps = DefaultEps
		}
		pl := platform.NewPlatform(1+int(data[0]>>1&7), 1+int(data[0]>>4&7))
		nw := pl.Workers()
		v := newVictimHeap(pl)
		busy := make([]bool, nw)
		runs := make([]sim.Running, nw)
		now := 0.0
		id := 0
		// firstIdle returns the first idle worker of class kind at or
		// after lo+hint, cyclically within the class, or -1.
		firstIdle := func(kind platform.Kind, hint int) int {
			lo, hi := pl.KindRange(kind)
			for i := 0; i < hi-lo; i++ {
				if w := lo + (hint+i)%(hi-lo); !busy[w] {
					return w
				}
			}
			return -1
		}
		firstBusy := func(from int) int {
			for i := 0; i < nw; i++ {
				if w := (from + i) % nw; busy[w] {
					return w
				}
			}
			return -1
		}
		start := func(w int, tk platform.Task, estEnd float64) {
			kind := pl.KindOf(w)
			busy[w] = true
			runs[w] = sim.Running{Worker: w, Task: tk, Start: now, End: estEnd, EstEnd: estEnd}
			v.start(w, kind, tk, estEnd)
		}
		stop := func(w int) {
			busy[w] = false
			v.remove(w, pl.KindOf(w))
		}
		var live []sim.Running
		for op := 1; op < len(data) && op <= 4096; op++ {
			b := data[op]
			arg := int(b >> 2)
			switch b & 3 {
			case 0:
				if op+1 == len(data) {
					break
				}
				op++
				spec := data[op]
				kind := platform.Kind(arg & 1)
				w := firstIdle(kind, arg>>1)
				if w < 0 {
					break
				}
				d := float64(spec & 7)
				estEnd := now + d
				if spec&7 == 7 {
					estEnd = math.Inf(1)
				}
				tk := platform.Task{ID: id, Priority: float64(int(spec>>3) % 3)}
				id++
				own, other := &tk.CPUTime, &tk.GPUTime
				if kind == platform.GPU {
					own, other = other, own
				}
				*own, *other = d, float64(1+int(spec>>5))/2
				start(w, tk, estEnd)
			case 1:
				if w := firstBusy(arg % nw); w >= 0 {
					if e := runs[w].EstEnd; e > now && !math.IsInf(e, 1) {
						now = e
					}
					stop(w)
				}
			case 2:
				if w := firstBusy(arg % nw); w >= 0 {
					stop(w)
				}
			case 3:
				now += float64(arg >> 1 & 3)
				kind := platform.Kind(arg & 1)
				w := firstIdle(kind, 0)
				if w < 0 {
					break
				}
				live = live[:0]
				lo, hi := pl.KindRange(kind.Other())
				for u := lo; u < hi; u++ {
					if busy[u] {
						live = append(live, runs[u])
					}
				}
				want := -1
				if i := PickVictim(live, now, kind, eps); i >= 0 {
					want = live[i].Worker
				}
				got := v.pick(kind, now, eps)
				if got != want {
					t.Fatalf("op %d: pick for %v at now %v (eps %v) = worker %d, PickVictim = worker %d over %+v",
						op, kind, now, eps, got, want, live)
				}
				if got >= 0 {
					tk := runs[got].Task
					stop(got)
					start(w, tk, now+tk.Time(kind))
				}
			}
		}
	})
}
