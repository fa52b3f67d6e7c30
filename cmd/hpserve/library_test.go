package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// libraryGraph builds a served workload through the public constructors
// directly, so a drift in buildServeWorkload shows up as a body that no
// longer matches the library.
func libraryGraph(t *testing.T, name string, n int) *dag.Graph {
	t.Helper()
	switch name {
	case "cholesky", "qr", "lu":
		g, err := workloads.Build(workloads.Factorization(name), n)
		if err != nil {
			t.Fatal(err)
		}
		return g
	case "wavefront":
		return workloads.DefaultWavefront(n)
	case "chains":
		return workloads.BagOfChains(n, 10, platform.Task{CPUTime: 10, GPUTime: 1}, platform.Task{CPUTime: 2, GPUTime: 3})
	case "uniform":
		rng := rand.New(rand.NewSource(1))
		return dag.FromInstance(workloads.UniformInstance(n*10, 1, 100, 0.2, 40, rng))
	}
	t.Fatalf("no library constructor for workload %q", name)
	return nil
}

// librarySummary is the run summary a library caller gets for a served
// request: RunDAG, the refined lower bound and Summarize, plus the
// request's identification fields.
func librarySummary(t *testing.T, q url.Values, alg string) (obs.RunSummary, *sim.Schedule) {
	t.Helper()
	n, _ := strconv.Atoi(q.Get("n"))
	cpus, _ := strconv.Atoi(q.Get("cpus"))
	gpus, _ := strconv.Atoi(q.Get("gpus"))
	g := libraryGraph(t, q.Get("workload"), n)
	pl := platform.Platform{CPUs: cpus, GPUs: gpus}
	sched, err := expr.RunDAG(alg, g, pl)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := bounds.DAGLowerRefined(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(sched, g.Tasks(), lower)
	sum.Workload, sum.Alg, sum.N = q.Get("workload"), alg, n
	return sum, sched
}

// summaryDiff names the first field where a served summary differs from
// the library's, comparing floats bit for bit. ID, When and Elapsed are
// the serving run's identity and timing, so they are left out.
func summaryDiff(served, lib obs.RunSummary) string {
	served.ID, served.When, served.Elapsed = "", time.Time{}, 0
	lib.ID, lib.When, lib.Elapsed = "", time.Time{}, 0
	vs, vl := reflect.ValueOf(served), reflect.ValueOf(lib)
	for i := 0; i < vs.NumField(); i++ {
		fs, fl := vs.Field(i), vl.Field(i)
		same := reflect.DeepEqual(fs.Interface(), fl.Interface())
		if fs.Kind() == reflect.Float64 {
			same = math.Float64bits(fs.Float()) == math.Float64bits(fl.Float())
		}
		if !same {
			return fmt.Sprintf("%s: served %v, library %v", vs.Type().Field(i).Name, fs, fl)
		}
	}
	return ""
}

// TestServedBodiesMatchLibrary holds hpserve's /schedule, /compare and
// /trace bodies to the library call for the same request: every summary
// field but the run's identity and timing, bit for bit, the schedule
// page's Gantt chart, and the trace-event JSON byte for byte.
func TestServedBodiesMatchLibrary(t *testing.T) {
	srv := newServer(nil, defaultServeConfig())
	for _, path := range []string{
		"/schedule?workload=cholesky&n=4&cpus=4&gpus=1&alg=HeteroPrio-min",
		"/schedule?workload=qr&n=6&cpus=2&gpus=2&alg=HEFT-min",
		"/schedule?workload=lu&n=5&cpus=4&gpus=2&alg=DualHP-fifo",
		"/schedule?workload=wavefront&n=7&cpus=3&gpus=1&alg=HeteroPrio-avg",
		"/schedule?workload=chains&n=6&cpus=4&gpus=2&alg=DualHP-min",
		"/schedule?workload=uniform&n=5&cpus=3&gpus=1&alg=HEFT-avg",
		"/compare?workload=cholesky&n=4&cpus=4&gpus=1",
		"/trace?workload=qr&n=5&cpus=3&gpus=1&alg=HeteroPrio-min",
	} {
		u, err := url.Parse(path)
		if err != nil {
			t.Fatal(err)
		}
		q := u.Query()
		if u.Path == "/trace" {
			code, body := get(t, srv, path)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, code, body)
			}
			_, sched := librarySummary(t, q, q.Get("alg"))
			if sched.SpoliationCount() == 0 {
				t.Fatalf("%s: no spoliation, so no aborted run is compared", path)
			}
			n, _ := strconv.Atoi(q.Get("n"))
			names := map[int]string{}
			for _, task := range libraryGraph(t, q.Get("workload"), n).Tasks() {
				names[task.ID] = task.Name
			}
			want, err := trace.Chrome(sched, names)
			if err != nil {
				t.Fatal(err)
			}
			if body != string(want) {
				t.Errorf("%s: the body is not the library schedule's trace.Chrome", path)
			}
			continue
		}
		code, body := get(t, srv, path+"&format=json")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		if u.Path == "/compare" {
			var resp struct {
				Rows []obs.RunSummary `json:"rows"`
			}
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			algs := expr.DAGAlgorithms()
			if len(resp.Rows) != len(algs) {
				t.Fatalf("%s: %d rows, want one per algorithm (%d)", path, len(resp.Rows), len(algs))
			}
			for i, alg := range algs {
				lib, _ := librarySummary(t, q, alg)
				if d := summaryDiff(resp.Rows[i], lib); d != "" {
					t.Errorf("%s row %d (%s): %s", path, i, alg, d)
				}
			}
			continue
		}
		var served obs.RunSummary
		if err := json.Unmarshal([]byte(body), &served); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		lib, sched := librarySummary(t, q, q.Get("alg"))
		if d := summaryDiff(served, lib); d != "" {
			t.Errorf("%s: %s", path, d)
		}
		code, page := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s page: status %d", path, code)
		}
		if !strings.Contains(page, trace.SVG(sched, 1100)) || strings.Count(page, "<svg") != 1 {
			t.Errorf("%s: the page's SVG is not the library schedule's trace.SVG", path)
		}
	}
}
