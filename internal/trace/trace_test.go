package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

func demoSchedule(t *testing.T) (*sim.Schedule, platform.Instance) {
	t.Helper()
	in := platform.Instance{
		{ID: 0, Name: "a", CPUTime: 10, GPUTime: 1},
		{ID: 1, Name: "b", CPUTime: 10, GPUTime: 2},
	}
	pl := platform.NewPlatform(1, 1)
	res, err := core.ScheduleIndependent(in, pl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, in
}

func TestChromeValidJSON(t *testing.T) {
	s, in := demoSchedule(t)
	names := map[int]string{}
	for _, task := range in {
		names[task.ID] = task.Name
	}
	raw, err := Chrome(s, names)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var complete, meta, aborted, wastedTagged int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if args, ok := e["args"].(map[string]any); ok {
				if strings.Contains(asString(args["state"]), "aborted") {
					aborted++
				}
				if asString(args["wasted_ms"]) != "" {
					wastedTagged++
				}
			}
		case "M":
			meta++
		}
	}
	// 2 process metas + 2 thread metas; 3 runs (one aborted by spoliation).
	if meta != 4 {
		t.Errorf("meta events = %d, want 4", meta)
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if aborted != 1 {
		t.Errorf("aborted events = %d, want 1", aborted)
	}
	if wastedTagged != aborted {
		t.Errorf("wasted_ms tagged on %d events, want %d (every aborted run)", wastedTagged, aborted)
	}
	if !strings.Contains(string(raw), "\"a\"") {
		t.Error("task names missing from trace")
	}
}

func asString(v any) string {
	s, _ := v.(string)
	return s
}

func TestChromeUnnamedTasks(t *testing.T) {
	s, _ := demoSchedule(t)
	raw, err := Chrome(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "task 0") {
		t.Error("fallback task names missing")
	}
}

// TestChromeLiveMatchesPostHoc runs the scheduler with a live Timeline
// observer attached and checks that the schedule rebuilt from the
// captured events exports to the same trace-event JSON, byte for byte,
// as the finished schedule, spoliated run included.
func TestChromeLiveMatchesPostHoc(t *testing.T) {
	in := platform.Instance{
		{ID: 0, Name: "a", CPUTime: 10, GPUTime: 1},
		{ID: 1, Name: "b", CPUTime: 10, GPUTime: 2},
	}
	pl := platform.NewPlatform(1, 1)
	tl := obs.NewTimeline()
	res, err := core.ScheduleIndependent(in, pl, core.Options{Observer: tl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spoliations == 0 {
		t.Fatal("instance no longer spoliates; the aborted run goes unchecked")
	}
	names := map[int]string{0: "a", 1: "b"}
	live, err := Chrome(tl.Schedule(pl), names)
	if err != nil {
		t.Fatal(err)
	}
	post, err := Chrome(res.Schedule, names)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(post) {
		t.Errorf("trace of the live timeline differs from the post-hoc trace:\nlive: %s\npost: %s", live, post)
	}
}

func TestSVG(t *testing.T) {
	s, _ := demoSchedule(t)
	svg := SVG(s, 640)
	for _, want := range []string{"<svg", "CPU0", "GPU0", "ABORTED", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Tiny width is clamped, empty schedule does not divide by zero.
	empty := &sim.Schedule{Platform: platform.NewPlatform(1, 0)}
	if out := SVG(empty, 10); !strings.Contains(out, "<svg") {
		t.Error("empty schedule SVG broken")
	}
}
