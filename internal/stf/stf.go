// Package stf implements the sequential-task-flow (STF) programming model
// of StarPU-like runtime systems, the submission interface behind the
// paper's workloads: the application submits tasks in sequential order,
// declaring which data each task reads and writes, and the runtime infers
// the dependency DAG from the data accesses (read-after-write,
// write-after-read and write-after-write hazards).
//
// Example (tiled Cholesky panel update):
//
//	f := stf.New()
//	akk := f.Data("A(0,0)")
//	aik := f.Data("A(1,0)")
//	f.Submit(potrf, stf.RW(akk))
//	f.Submit(trsm, stf.R(akk), stf.RW(aik))  // depends on the POTRF
//	g := f.Graph()                            // ready to schedule
package stf

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Handle identifies a piece of data registered with the flow.
type Handle int

// AccessMode is how a task touches a handle.
type AccessMode int8

const (
	// Read declares a read-only access.
	Read AccessMode = iota
	// Write declares a write-only access.
	Write
	// ReadWrite declares an in-place update.
	ReadWrite
)

// String implements fmt.Stringer.
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	default:
		return fmt.Sprintf("AccessMode(%d)", int8(m))
	}
}

// Access pairs a handle with its mode.
type Access struct {
	Handle Handle
	Mode   AccessMode
}

// R declares a read access.
func R(h Handle) Access { return Access{h, Read} }

// W declares a write access.
func W(h Handle) Access { return Access{h, Write} }

// RW declares a read-write access.
func RW(h Handle) Access { return Access{h, ReadWrite} }

// Flow accumulates submitted tasks and infers dependencies.
type Flow struct {
	g     *dag.Graph
	names []string
	// lastWriter[h] is the last task that wrote h (-1 if none).
	lastWriter []int
	// readersSince[h] are tasks that read h since its last write.
	readersSince [][]int
}

// New returns an empty flow.
func New() *Flow { return &Flow{g: dag.New()} }

// Data registers a new piece of data and returns its handle.
func (f *Flow) Data(name string) Handle {
	h := Handle(len(f.lastWriter))
	f.names = append(f.names, name)
	f.lastWriter = append(f.lastWriter, -1)
	f.readersSince = append(f.readersSince, nil)
	return h
}

// DataName returns the registered name of a handle.
func (f *Flow) DataName(h Handle) string { return f.names[h] }

// NumData returns the number of registered handles.
func (f *Flow) NumData() int { return len(f.lastWriter) }

// Submit appends a task with the given data accesses and returns its ID.
// Dependencies are inferred in submission order:
//
//   - a read depends on the last writer (RAW);
//   - a write depends on the last writer (WAW) and on every reader since
//     that write (WAR).
//
// Duplicate and conflicting accesses to the same handle are merged with
// the strongest mode, at the handle's first position, and edges are
// added in declaration order, so every build of a flow gives the same
// Preds and Succs order (which sets the release order of ready tasks).
func (f *Flow) Submit(t platform.Task, accesses ...Access) (int, error) {
	merged := make([]Access, 0, len(accesses))
	for _, a := range accesses {
		if int(a.Handle) < 0 || int(a.Handle) >= len(f.lastWriter) {
			return 0, fmt.Errorf("stf: task %q uses unregistered handle %d", t.Name, a.Handle)
		}
		i := 0
		for i < len(merged) && merged[i].Handle != a.Handle {
			i++
		}
		if i == len(merged) {
			merged = append(merged, a)
		} else if merged[i].Mode != a.Mode {
			merged[i].Mode = ReadWrite
		}
	}
	id := f.g.AddTask(t)
	for _, a := range merged {
		h := a.Handle
		switch a.Mode {
		case Read:
			if w := f.lastWriter[h]; w >= 0 {
				f.g.AddEdge(w, id)
			}
			f.readersSince[h] = append(f.readersSince[h], id)
		case Write, ReadWrite:
			if w := f.lastWriter[h]; w >= 0 {
				f.g.AddEdge(w, id)
			}
			for _, r := range f.readersSince[h] {
				if r != id {
					f.g.AddEdge(r, id)
				}
			}
			f.lastWriter[h] = id
			f.readersSince[h] = f.readersSince[h][:0]
		}
	}
	return id, nil
}

// MustSubmit is Submit that panics on error (convenient in generators
// where handles are created locally and cannot be invalid).
func (f *Flow) MustSubmit(t platform.Task, accesses ...Access) int {
	id, err := f.Submit(t, accesses...)
	if err != nil {
		panic(err)
	}
	return id
}

// Graph returns the inferred task graph. The flow remains usable; the
// graph is shared, so callers should stop submitting once scheduling
// begins.
func (f *Flow) Graph() *dag.Graph { return f.g }

// Len returns the number of submitted tasks.
func (f *Flow) Len() int { return f.g.Len() }
