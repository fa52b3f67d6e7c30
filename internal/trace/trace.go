// Package trace exports schedule traces to standard visualization
// formats: the Chrome/Perfetto trace-event JSON format (load in
// chrome://tracing or ui.perfetto.dev) and a standalone SVG Gantt chart.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/platform"
	"repro/internal/sim"
)

// chromeEvent is one complete event ("ph":"X") of the trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// Chrome renders the schedule as Chrome trace-event JSON. Schedule times
// are interpreted as milliseconds. Each worker becomes a thread; the two
// resource classes become two processes. Aborted runs are tagged.
func Chrome(s *sim.Schedule, names map[int]string) ([]byte, error) {
	var out []json.RawMessage
	add := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out = append(out, b)
		return nil
	}
	for _, kind := range []platform.Kind{platform.CPU, platform.GPU} {
		if err := add(chromeMeta{
			Name: "process_name", Ph: "M", PID: int(kind), TID: 0,
			Args: map[string]any{"name": kind.String() + " class"},
		}); err != nil {
			return nil, err
		}
	}
	for w := 0; w < s.Platform.Workers(); w++ {
		if err := add(chromeMeta{
			Name: "thread_name", Ph: "M", PID: int(s.Platform.KindOf(w)), TID: w,
			Args: map[string]any{"name": s.Platform.WorkerName(w)},
		}); err != nil {
			return nil, err
		}
	}
	for _, e := range s.Entries {
		name := names[e.TaskID]
		if name == "" {
			name = fmt.Sprintf("task %d", e.TaskID)
		}
		args := map[string]string{}
		if e.Aborted {
			args["state"] = "aborted (spoliated)"
			// The run's whole duration is lost work — the paper's
			// "spoliation wasted area", surfaced per run in the viewer.
			args["wasted_ms"] = strconv.FormatFloat(e.Duration(), 'g', -1, 64)
		} else if e.Spoliation {
			args["state"] = "restarted by spoliation"
		}
		if err := add(chromeEvent{
			Name: name, Ph: "X",
			Ts:  e.Start * 1000, // ms -> us
			Dur: math.Max(e.Duration()*1000, 0.001),
			PID: int(e.Kind), TID: e.Worker,
			Args: args,
		}); err != nil {
			return nil, err
		}
	}
	return json.MarshalIndent(out, "", " ")
}

// SVG renders the schedule as a standalone SVG Gantt chart of the given
// pixel width. Colors cycle per task; aborted runs are hatched red.
func SVG(s *sim.Schedule, width int) string {
	const rowH, pad, legendH = 22, 4, 20
	if width < 100 {
		width = 100
	}
	ms := s.Makespan()
	if ms <= 0 {
		ms = 1
	}
	workers := s.Platform.Workers()
	height := workers*(rowH+pad) + legendH + pad
	labelW := 60.0
	scale := (float64(width) - labelW - 10) / ms

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	for w := 0; w < workers; w++ {
		y := float64(w*(rowH+pad)) + legendH
		fmt.Fprintf(&b, `<text x="2" y="%.1f">%s</text>`+"\n", y+rowH-7, s.Platform.WorkerName(w))
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%d" fill="#f0f0f0"/>`+"\n",
			labelW, y, ms*scale, rowH)
	}
	entries := append([]sim.Entry(nil), s.Entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Start < entries[j].Start })
	palette := []string{"#4e79a7", "#f28e2b", "#59a14f", "#b07aa1", "#76b7b2", "#edc948", "#ff9da7", "#9c755f"}
	for _, e := range entries {
		y := float64(e.Worker*(rowH+pad)) + legendH
		x := labelW + e.Start*scale
		wpx := math.Max(e.Duration()*scale, 0.5)
		fill := palette[e.TaskID%len(palette)]
		if e.Aborted {
			fill = "#d62728"
		}
		opacity := 1.0
		if e.Aborted {
			opacity = 0.45
		}
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.1f" width="%.2f" height="%d" fill="%s" fill-opacity="%.2f" stroke="black" stroke-width="0.3"><title>task %d [%.4g, %.4g)%s</title></rect>`+"\n",
			x, y+1, wpx, rowH-2, fill, opacity, e.TaskID, e.Start, e.End, abortTag(e))
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="14">makespan %.4g — red = aborted (spoliated) run</text>`+"\n", labelW, ms)
	b.WriteString("</svg>\n")
	return b.String()
}

func abortTag(e sim.Entry) string {
	if e.Aborted {
		return " ABORTED"
	}
	if e.Spoliation {
		return " (restarted by spoliation)"
	}
	return ""
}
