package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

// fifo is a minimal Run policy: released tasks start in release order on
// the idle workers, lowest index first; rounds logs each Assign instant.
type fifo struct {
	k      *Kernel
	queue  []platform.Task
	rounds []float64
}

func (f *fifo) release(t platform.Task) { f.queue = append(f.queue, t) }

func (f *fifo) assign() error {
	f.rounds = append(f.rounds, f.k.Now)
	for w := f.k.NextIdle(platform.CPU, 0); w >= 0 && len(f.queue) > 0; w = f.k.NextIdle(platform.CPU, w+1) {
		f.k.Start(w, f.queue[0], false)
		f.queue = f.queue[1:]
	}
	return nil
}

// TestRunBatchRounds: two runs end together at t=2. A batch policy
// decides once for both freed workers; otherwise a round follows each
// completion. No round follows the last completion.
func TestRunBatchRounds(t *testing.T) {
	for _, batch := range []bool{true, false} {
		f := &fifo{k: NewKernel(platform.NewPlatform(2, 0))}
		src := Releases{Tasks: platform.Instance{task(0, 2, 9), task(1, 2, 9), task(2, 1, 9)}}
		if err := Run(f.k, src, Policy{Release: f.release, Assign: f.assign, Batch: batch}); err != nil {
			t.Fatal(err)
		}
		want := []float64{0, 2, 2}
		if batch {
			want = []float64{0, 2}
		}
		if !reflect.DeepEqual(f.rounds, want) {
			t.Errorf("batch=%v: rounds at %v, want %v", batch, f.rounds, want)
		}
		if err := f.k.Schedule().Validate(src.Tasks, nil); err != nil {
			t.Errorf("batch=%v: %v", batch, err)
		}
	}
}

// TestRunArrivals: the loop jumps to a release date when no run ends
// before it, and a task starts no earlier than its release.
func TestRunArrivals(t *testing.T) {
	f := &fifo{k: NewKernel(platform.NewPlatform(1, 0))}
	src := Releases{Arrivals: []Arrival{{task(0, 2, 9), 0}, {task(1, 2, 9), 5}}}
	if err := Run(f.k, src, Policy{Release: f.release, Assign: f.assign}); err != nil {
		t.Fatal(err)
	}
	var starts []float64
	for _, e := range f.k.Schedule().Entries {
		starts = append(starts, e.Start)
	}
	if want := []float64{0, 5}; !reflect.DeepEqual(starts, want) {
		t.Errorf("starts %v, want %v", starts, want)
	}
}

// TestRunErrors: Assign's error ends the run, and a policy that leaves
// tasks unstarted with nothing left to complete or arrive gets an error.
func TestRunErrors(t *testing.T) {
	k := NewKernel(platform.NewPlatform(1, 0))
	src := Releases{Tasks: platform.Instance{task(0, 1, 1), task(1, 1, 1)}}
	idle := Policy{Release: func(platform.Task) {}, Assign: func() error { return nil }}
	if err := Run(k, src, idle); err == nil || !strings.Contains(err.Error(), "2 tasks remaining") {
		t.Errorf("stalled run: err = %v", err)
	}
	boom := errors.New("boom")
	failing := Policy{Release: func(platform.Task) {}, Assign: func() error { return boom }}
	if err := Run(NewKernel(platform.NewPlatform(1, 0)), src, failing); !errors.Is(err, boom) {
		t.Errorf("Assign error: err = %v, want %v", err, boom)
	}
}
