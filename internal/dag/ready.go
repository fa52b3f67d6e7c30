package dag

import "fmt"

// ReadyTracker incrementally tracks which tasks of a graph are ready (all
// predecessors completed). Online schedulers feed completion events into it
// and drain the newly ready tasks.
type ReadyTracker struct {
	g       *Graph
	missing []int  // remaining uncompleted predecessors per task
	done    []bool // completion flags
	ready   []int  // queue of ready-but-not-yet-drained task IDs
	left    int    // tasks not yet completed
}

// NewReadyTracker returns a tracker with all sources initially ready.
func NewReadyTracker(g *Graph) *ReadyTracker {
	rt := &ReadyTracker{
		g:       g,
		missing: make([]int, g.Len()),
		done:    make([]bool, g.Len()),
		left:    g.Len(),
	}
	for id := 0; id < g.Len(); id++ {
		rt.missing[id] = g.InDegree(id)
		if rt.missing[id] == 0 {
			rt.ready = append(rt.ready, id)
		}
	}
	return rt
}

// Complete marks task id as completed and queues any successors that become
// ready. Completing a task twice or completing an unready task is a
// programming error and panics.
func (rt *ReadyTracker) Complete(id int) {
	if rt.done[id] {
		panic(fmt.Sprintf("dag: task %d completed twice", id))
	}
	if rt.missing[id] != 0 {
		panic(fmt.Sprintf("dag: task %d completed with %d pending predecessors", id, rt.missing[id]))
	}
	rt.done[id] = true
	rt.left--
	for _, s := range rt.g.Succs(id) {
		rt.missing[s]--
		if rt.missing[s] == 0 {
			rt.ready = append(rt.ready, s)
		}
	}
}

// Drain returns the tasks that became ready since the last call. The
// caller owns the returned slice; hot loops use DrainShared.
func (rt *ReadyTracker) Drain() []int {
	shared := rt.DrainShared()
	out := make([]int, len(shared))
	copy(out, shared)
	return out
}

// DrainShared is the allocation-free form of Drain: the returned slice
// aliases the tracker's internal ready queue and is invalidated by the
// next Complete call, so callers must consume it before feeding the next
// completion event. TestDrainSharedAllocFree checks that a pass over a
// whole graph allocates only what NewReadyTracker does.
func (rt *ReadyTracker) DrainShared() []int {
	out := rt.ready
	rt.ready = rt.ready[:0]
	return out
}

// PendingReady returns the number of ready tasks not yet drained.
func (rt *ReadyTracker) PendingReady() int { return len(rt.ready) }

// Remaining returns the number of tasks not yet completed.
func (rt *ReadyTracker) Remaining() int { return rt.left }

// Done reports whether every task has completed.
func (rt *ReadyTracker) Done() bool { return rt.left == 0 }

// IsCompleted reports whether task id has completed.
func (rt *ReadyTracker) IsCompleted(id int) bool { return rt.done[id] }
