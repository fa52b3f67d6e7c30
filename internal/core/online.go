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
type ReleasedTask = sim.Arrival

// ScheduleOnline runs HeteroPrio in the online-arrival setting studied by
// Imreh [14] and pointed at by the paper's related work: tasks enter the
// ready queue at their release dates, and at any instant the algorithm of
// the independent case (including spoliation) is applied to the tasks
// released so far. It is the same policy and event loop as ScheduleDAG
// with timed arrivals instead of dependency releases.
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
	return runList(sim.Releases{Arrivals: arrivals}, pl, opt)
}
