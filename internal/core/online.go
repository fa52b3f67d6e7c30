package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
	"repro/internal/sim"
)

// ReleasedTask is a task with a release date for the online setting
// (tasks arrive over time, the scheduler learns a task at its release).
type ReleasedTask struct {
	Task    platform.Task
	Release float64
}

// ScheduleOnline runs HeteroPrio in the online-arrival setting studied by
// Imreh [14] and pointed at by the paper's related work: tasks enter the
// ready queue at their release dates, and at any instant the algorithm of
// the independent case (including spoliation) is applied to the tasks
// released so far. The result is the same event loop as ScheduleDAG with
// timed arrivals instead of dependency releases.
func ScheduleOnline(tasks []ReleasedTask, pl platform.Platform, opt Options) (Result, error) {
	if err := pl.Validate(); err != nil {
		return Result{}, err
	}
	in := make(platform.Instance, len(tasks))
	for i, rt := range tasks {
		if rt.Release < 0 || math.IsNaN(rt.Release) || math.IsInf(rt.Release, 0) {
			return Result{}, fmt.Errorf("core: task %d has invalid release date %v", rt.Task.ID, rt.Release)
		}
		in[i] = rt.Task
	}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}

	arrivals := append([]ReleasedTask(nil), tasks...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Release < arrivals[j].Release })

	k := sim.NewKernel(pl)
	q := NewQueue(opt.UsePriorities)
	eps := opt.eps()
	o := opt.Observer
	next := 0 // next arrival index
	remaining := len(arrivals)
	spoliations := 0
	tFirstIdle := math.Inf(1)

	admit := func() {
		for next < len(arrivals) && arrivals[next].Release <= k.Now+1e-12 {
			q.Push(arrivals[next].Task)
			if o != nil {
				o.TaskQueued(k.Now, arrivals[next].Task, q.Len())
			}
			next++
		}
	}

	trySpoliate := func(w int) bool {
		kind := pl.KindOf(w)
		victims := k.RunningOnShared(kind.Other())
		i := pickVictim(victims, k.Now, kind, eps)
		if i < 0 {
			return false
		}
		v := victims[i]
		k.Abort(v.Worker)
		k.StartTimed(w, v.Task, opt.actual(v.Task, kind), true)
		spoliations++
		if o != nil {
			o.TaskSpoliated(k.Now, v.Worker, w, v.Task, k.Now-v.Start)
			o.TaskStarted(k.Now, w, kind, v.Task, k.Now+v.Task.Time(kind), true)
		}
		return true
	}

	assign := func() {
		for {
			changed := false
			for _, w := range k.IdleWorkersShared(platform.GPU) {
				if q.Len() == 0 {
					break
				}
				t := q.PopFront()
				k.StartTimed(w, t, opt.actual(t, platform.GPU), false)
				changed = true
				if o != nil {
					o.TaskStarted(k.Now, w, platform.GPU, t, k.Now+t.Time(platform.GPU), false)
				}
			}
			for _, w := range k.IdleWorkersShared(platform.CPU) {
				if q.Len() == 0 {
					break
				}
				t := q.PopBack()
				k.StartTimed(w, t, opt.actual(t, platform.CPU), false)
				changed = true
				if o != nil {
					o.TaskStarted(k.Now, w, platform.CPU, t, k.Now+t.Time(platform.CPU), false)
				}
			}
			if q.Len() == 0 && !opt.DisableSpoliation {
				// Stop a class at its first failed attempt, as runList's
				// assign does.
				for _, kind := range kindOrder {
					for _, w := range k.IdleWorkersShared(kind) {
						if !trySpoliate(w) {
							break
						}
						changed = true
					}
				}
			}
			if !changed {
				return
			}
		}
	}

	complete := func(run sim.Running) {
		remaining--
		if o != nil {
			o.TaskCompleted(k.Now, run.Worker, pl.KindOf(run.Worker), run.Task, run.Start)
		}
	}
	for remaining > 0 || k.NumBusy() > 0 {
		admit()
		assign()
		if remaining > 0 && k.NumBusy() < pl.Workers() && k.Now < tFirstIdle {
			tFirstIdle = k.Now
		}
		if o != nil && remaining > 0 {
			o.QueueDepthSample(k.Now, q.Len())
			for w := 0; w < pl.Workers(); w++ {
				if !k.Busy(w) {
					o.WorkerIdle(k.Now, w, pl.KindOf(w))
				}
			}
		}
		// Advance to the earlier of next completion and next arrival.
		nextArrival := math.Inf(1)
		if next < len(arrivals) {
			nextArrival = arrivals[next].Release
		}
		nextDone := k.NextCompletion()
		if nextArrival < nextDone {
			k.Now = nextArrival
			continue
		}
		run, ok := k.CompleteNext()
		if !ok {
			break
		}
		complete(run)
		//hplint:allow floateq completions at one instant carry the same stored float; the exact same-timestamp drain is intended
		for k.NextCompletion() == k.Now {
			if run, ok = k.CompleteNext(); !ok {
				break
			}
			complete(run)
		}
	}
	if remaining != 0 {
		return Result{}, fmt.Errorf("core: online run stalled with %d tasks remaining", remaining)
	}
	return Result{
		Schedule:    k.Schedule(),
		TFirstIdle:  tFirstIdle,
		Spoliations: spoliations,
	}, nil
}
