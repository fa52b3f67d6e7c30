package runtime

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/platform"
	"repro/internal/tile"
	"repro/internal/workloads"
)

// factorGraph returns the runtime graph factoring td in place with fact:
// the tasks and edges of workloads.Build(fact, td.NT), copied in ID order.
// kernel turns each task's kernel and tile coordinates, read back from its
// name, into its estimates, Run closure and snapshot hooks. estB is the
// tile size the estimates were calibrated for.
func factorGraph(fact workloads.Factorization, td *tile.Tiled, estB int,
	kernel func(op string, i, j, k int) (Task, bool)) (*Graph, error) {
	if estB != td.B {
		return nil, fmt.Errorf("runtime: estimates for tile size %d, matrix uses %d", estB, td.B)
	}
	g := NewGraph()
	if td.NT == 0 {
		return g, nil
	}
	d, err := workloads.Build(fact, td.NT)
	if err != nil {
		return nil, err
	}
	for v, t := range d.Tasks() {
		op, i, j, k, err := workloads.ParseTaskName(t.Name)
		if err != nil {
			return nil, err
		}
		task, ok := kernel(op, i, j, k)
		if !ok {
			return nil, fmt.Errorf("runtime: %s has no %s kernel for task %s", fact, op, t.Name)
		}
		task.Name = t.Name
		g.Add(task)
		for _, u := range d.Preds(v) {
			g.AddDep(u, v)
		}
	}
	return g, nil
}

// tileTask returns a task running run with the per-class estimates est.
// Its Prepare snapshots the tiles in writes, and its Reset restores them
// before a restart.
func tileTask(est [2]float64, run func(kind platform.Kind, flag *cancel.Flag) (bool, error), writes ...[]float64) Task {
	backups := make([][]float64, len(writes))
	return Task{
		EstCPU: est[0], EstGPU: est[1],
		Prepare: func() {
			for i, w := range writes {
				backups[i] = append(backups[i][:0], w...)
			}
		},
		Reset: func() {
			for i, w := range writes {
				copy(w, backups[i])
			}
		},
		Run: run,
	}
}

// timeIt returns how long one call of f takes on clk, in seconds: the
// calibrators' single measurement of a kernel.
func timeIt(clk clock.Clock, f func()) float64 {
	start := clk.Now()
	f()
	return clk.Since(start).Seconds()
}
