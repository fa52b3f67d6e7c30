// Package platform defines the machine and task model used throughout the
// repository: a heterogeneous node made of two classes of unrelated
// resources (CPU workers and GPU workers) and tasks characterized by one
// processing time per class.
//
// The model follows Section 4.1 of Beaumont, Eyraud-Dubois and Kumar,
// "Approximation Proofs of a Fast and Efficient List Scheduling Algorithm
// for Task-Based Runtime Systems on Multicores and GPUs" (IPDPS 2017):
// a platform of m CPUs and n GPUs, and tasks T_i with processing time p_i
// on a CPU and q_i on a GPU. The acceleration factor of T_i is
// rho_i = p_i / q_i; it may be smaller than 1 (the task is better on CPU).
package platform

import (
	"errors"
	"fmt"
	"math"
)

// Kind identifies one of the two resource classes of the node.
type Kind int8

const (
	// CPU is the "slow, numerous" resource class (m workers).
	CPU Kind = iota
	// GPU is the "fast, scarce" resource class (n workers).
	GPU
)

// NumKinds is the number of resource classes in the model.
const NumKinds = 2

// Other returns the opposite resource class.
func (k Kind) Other() Kind {
	if k == CPU {
		return GPU
	}
	return CPU
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// Valid reports whether k is one of the two defined kinds.
func (k Kind) Valid() bool { return k == CPU || k == GPU }

// Task is an atomic unit of work with one processing time per resource
// class. Tasks are value types; schedulers identify them by ID, which must
// be unique within an instance.
type Task struct {
	// ID is the unique identifier of the task within its instance.
	ID int
	// Name is an optional human-readable label (e.g. the kernel name).
	Name string
	// CPUTime is p_i, the processing time of the task on one CPU worker.
	CPUTime float64
	// GPUTime is q_i, the processing time of the task on one GPU worker.
	GPUTime float64
	// Priority is an application-provided hint (e.g. a bottom level)
	// used only to break ties; larger means more urgent.
	Priority float64
}

// Time returns the processing time of the task on resource class k.
func (t Task) Time(k Kind) float64 {
	if k == GPU {
		return t.GPUTime
	}
	return t.CPUTime
}

// Accel returns the acceleration factor rho = CPUTime / GPUTime.
// A factor above 1 means the task runs faster on a GPU.
func (t Task) Accel() float64 { return t.CPUTime / t.GPUTime }

// MinTime returns min(p, q), a per-task lower bound on the optimal makespan.
// The builtin min compiles to a few instructions where math.Min calls an
// assembly routine on amd64 and arm64. The two agree on ±0, ±Inf and NaN
// except min(-Inf, NaN), which is NaN rather than -Inf; Validate rejects
// both times.
func (t Task) MinTime() float64 { return min(t.CPUTime, t.GPUTime) }

// MaxTime returns max(p, q) with the builtin max, which differs from
// math.Max only in max(+Inf, NaN): NaN rather than +Inf.
func (t Task) MaxTime() float64 { return max(t.CPUTime, t.GPUTime) }

// BestKind returns the resource class on which the task is fastest,
// preferring GPU on exact ties (ties are arbitrary in the model).
func (t Task) BestKind() Kind {
	if t.GPUTime <= t.CPUTime {
		return GPU
	}
	return CPU
}

// Validate reports an error if the task has non-positive or non-finite
// processing times, or a NaN priority. A NaN priority compares unordered
// with every other, so priority tie-breaks would stop being a total order;
// infinite priorities still order and are accepted.
func (t Task) Validate() error {
	if !(t.CPUTime > 0) || math.IsInf(t.CPUTime, 0) || math.IsNaN(t.CPUTime) {
		return fmt.Errorf("platform: task %d (%s): CPU time %v is not a positive finite number", t.ID, t.Name, t.CPUTime)
	}
	if !(t.GPUTime > 0) || math.IsInf(t.GPUTime, 0) || math.IsNaN(t.GPUTime) {
		return fmt.Errorf("platform: task %d (%s): GPU time %v is not a positive finite number", t.ID, t.Name, t.GPUTime)
	}
	if math.IsNaN(t.Priority) {
		return fmt.Errorf("platform: task %d (%s): priority is NaN", t.ID, t.Name)
	}
	return nil
}

// String implements fmt.Stringer.
func (t Task) String() string {
	name := t.Name
	if name == "" {
		name = fmt.Sprintf("task%d", t.ID)
	}
	return fmt.Sprintf("%s(id=%d p=%.4g q=%.4g rho=%.4g)", name, t.ID, t.CPUTime, t.GPUTime, t.Accel())
}

// Platform describes a heterogeneous node with CPUs CPU workers and GPUs
// GPU workers. Workers are numbered 0..CPUs-1 (CPUs) then
// CPUs..CPUs+GPUs-1 (GPUs).
type Platform struct {
	CPUs int
	GPUs int
}

// NewPlatform returns a platform with m CPU workers and n GPU workers.
// It panics if either count is negative or both are zero; use Validate for
// a non-panicking check.
func NewPlatform(m, n int) Platform {
	p := Platform{CPUs: m, GPUs: n}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// Validate reports an error for degenerate platforms.
func (p Platform) Validate() error {
	if p.CPUs < 0 || p.GPUs < 0 {
		return fmt.Errorf("platform: negative worker count (%d CPUs, %d GPUs)", p.CPUs, p.GPUs)
	}
	if p.CPUs+p.GPUs == 0 {
		return errors.New("platform: platform has no workers")
	}
	return nil
}

// Workers returns the total number of workers on the node.
func (p Platform) Workers() int { return p.CPUs + p.GPUs }

// Count returns the number of workers of class k.
func (p Platform) Count(k Kind) int {
	if k == GPU {
		return p.GPUs
	}
	return p.CPUs
}

// KindOf returns the class of worker w (see Platform worker numbering).
func (p Platform) KindOf(w int) Kind {
	if w < 0 || w >= p.Workers() {
		panic(fmt.Sprintf("platform: worker %d out of range [0,%d)", w, p.Workers()))
	}
	if w < p.CPUs {
		return CPU
	}
	return GPU
}

// KindRange returns the half-open worker index interval [lo, hi) of class
// k. It is the allocation-free form of WorkersOf for hot loops: workers of
// a class are always contiguous (CPUs first, then GPUs).
func (p Platform) KindRange(k Kind) (lo, hi int) {
	if k == CPU {
		return 0, p.CPUs
	}
	return p.CPUs, p.Workers()
}

// WorkersOf returns the worker indices of class k, in increasing order.
func (p Platform) WorkersOf(k Kind) []int {
	lo, hi := p.KindRange(k)
	ws := make([]int, 0, hi-lo)
	for w := lo; w < hi; w++ {
		ws = append(ws, w)
	}
	return ws
}

// WorkerName returns a short label such as "CPU3" or "GPU0" for worker w.
func (p Platform) WorkerName(w int) string {
	k := p.KindOf(w)
	idx := w
	if k == GPU {
		idx = w - p.CPUs
	}
	return fmt.Sprintf("%s%d", k, idx)
}

// String implements fmt.Stringer.
func (p Platform) String() string {
	return fmt.Sprintf("platform(%d CPUs, %d GPUs)", p.CPUs, p.GPUs)
}
