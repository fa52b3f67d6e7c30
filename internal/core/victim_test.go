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
