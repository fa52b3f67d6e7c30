package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// onlineInstance draws the instance of one property trial from its own
// seed: up to 20 tasks with integer times 1-8 and integer priorities 0-3
// on up to 4+3 workers, so equal expected completions (spoliation victim
// ties) and equal acceleration factors (queue ties) are common.
func onlineInstance(seed int64) (platform.Instance, platform.Platform) {
	rng := rand.New(rand.NewSource(seed))
	pl := platform.NewPlatform(1+rng.Intn(4), 1+rng.Intn(3))
	in := make(platform.Instance, 1+rng.Intn(20))
	for i := range in {
		in[i] = platform.Task{
			ID:       i,
			CPUTime:  float64(1 + rng.Intn(8)),
			GPUTime:  float64(1 + rng.Intn(8)),
			Priority: float64(rng.Intn(4)),
		}
	}
	return in, pl
}

// onlineDriftSeed draws an instance on which two spoliation victims end at
// the same instant with different priorities. ScheduleOnline diverged from
// ScheduleIndependent on it (and on seed 149 of the sweep below) while it
// ordered victims by completion time and ID only, skipping victimBefore's
// priority tie-break.
const onlineDriftSeed = 528

// TestScheduleOnlineNoReleasesMatchesIndependent: with every release at
// 0 the online loop knows the whole instance from the start, so it must
// build ScheduleIndependent's schedule entry for entry, with and without
// the queue's priority tie-break.
func TestScheduleOnlineNoReleasesMatchesIndependent(t *testing.T) {
	seeds := []int64{onlineDriftSeed}
	for s := int64(1); s <= 300; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		in, pl := onlineInstance(seed)
		rel := make([]ReleasedTask, len(in))
		for i, tk := range in {
			rel[i] = ReleasedTask{Task: tk}
		}
		for _, opt := range []Options{{}, {UsePriorities: true}} {
			online, err := ScheduleOnline(rel, pl, opt)
			if err != nil {
				t.Fatal(err)
			}
			offline, err := ScheduleIndependent(in, pl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := online.Schedule.Validate(in, nil); err != nil {
				t.Fatalf("seed %d priorities=%v: %v", seed, opt.UsePriorities, err)
			}
			got, want := online.Schedule.Entries, offline.Schedule.Entries
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("seed %d priorities=%v: entry %d online %+v, offline %+v", seed, opt.UsePriorities, i, got[i], want[i])
				}
			}
			if len(got) != len(want) || online.Spoliations != offline.Spoliations || online.TFirstIdle != offline.TFirstIdle {
				t.Fatalf("seed %d priorities=%v: online %d entries, %d spoliations, first idle %v; offline %d, %d, %v",
					seed, opt.UsePriorities, len(got), online.Spoliations, online.TFirstIdle, len(want), offline.Spoliations, offline.TFirstIdle)
			}
		}
	}
}

func TestScheduleOnlineRespectsReleases(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	rel := []ReleasedTask{
		{Task: task(0, 5, 1), Release: 0},
		{Task: task(1, 5, 1), Release: 10},
	}
	res, err := ScheduleOnline(rel, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Schedule.Entries {
		if e.TaskID == 1 && e.Start < 10-1e-9 {
			t.Errorf("task 1 started at %v before its release 10", e.Start)
		}
	}
	// Task 0 on the GPU at [0,1]; task 1 arrives at 10 -> done at 11.
	if math.Abs(res.Makespan()-11) > 1e-9 {
		t.Errorf("makespan = %v, want 11", res.Makespan())
	}
}

func TestScheduleOnlineSpoliationAfterArrival(t *testing.T) {
	// The CPU grabs the only available task; a better candidate arrives
	// later for the GPU, which afterwards spoliates the CPU's task.
	pl := platform.NewPlatform(1, 1)
	rel := []ReleasedTask{
		{Task: task(0, 100, 10), Release: 0}, // CPU takes it at 0... GPU takes it (front)
		{Task: task(1, 100, 10), Release: 0}, // CPU takes this one
		{Task: task(2, 1, 1), Release: 5},    // keeps GPU busy briefly
	}
	res, err := ScheduleOnline(rel, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spoliations == 0 {
		t.Error("expected at least one spoliation")
	}
	if err := res.Schedule.Validate(platform.Instance{rel[0].Task, rel[1].Task, rel[2].Task}, nil); err != nil {
		t.Fatal(err)
	}
	// GPU: task0 [0,10], task2 [10,11], then spoliates task1 (CPU would
	// finish at 100): [11,21]. Makespan 21.
	if math.Abs(res.Makespan()-21) > 1e-9 {
		t.Errorf("makespan = %v, want 21", res.Makespan())
	}
}

func TestScheduleOnlineInvalid(t *testing.T) {
	pl := platform.NewPlatform(1, 1)
	if _, err := ScheduleOnline([]ReleasedTask{{Task: task(0, 1, 1), Release: -1}}, pl, Options{}); err == nil {
		t.Error("negative release accepted")
	}
	if _, err := ScheduleOnline([]ReleasedTask{{Task: task(0, -1, 1)}}, pl, Options{}); err == nil {
		t.Error("invalid task accepted")
	}
	if _, err := ScheduleOnline(nil, platform.Platform{}, Options{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestScheduleOnlineRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		pl := platform.NewPlatform(1+rng.Intn(3), 1+rng.Intn(2))
		T := 1 + rng.Intn(20)
		var rel []ReleasedTask
		var in platform.Instance
		for i := 0; i < T; i++ {
			tk := task(i, 0.1+rng.Float64()*10, 0.1+rng.Float64()*10)
			in = append(in, tk)
			rel = append(rel, ReleasedTask{Task: tk, Release: rng.Float64() * 20})
		}
		res, err := ScheduleOnline(rel, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Starts respect releases.
		relByID := map[int]float64{}
		for _, r := range rel {
			relByID[r.Task.ID] = r.Release
		}
		abortCount := map[int]int{}
		for _, e := range res.Schedule.Entries {
			if e.Start < relByID[e.TaskID]-1e-9 {
				t.Fatalf("trial %d: task %d started %v before release %v", trial, e.TaskID, e.Start, relByID[e.TaskID])
			}
			if e.Aborted {
				abortCount[e.TaskID]++
			}
		}
		// Lemma 5 does not hold online (both classes may spoliate at
		// different epochs), but a single task still cannot ping-pong: a
		// spoliated task runs on its strictly faster class afterwards.
		for id, c := range abortCount {
			if c > 1 {
				t.Fatalf("trial %d: task %d aborted %d times", trial, id, c)
			}
		}
	}
}
