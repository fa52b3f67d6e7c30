package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExpositionGolden locks the Prometheus text format: a registry with
// one of each metric kind, deterministic values, compared byte-for-byte
// against testdata/exposition.golden.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hp_tasks_completed_total", "Tasks that finished a successful run.")
	c.Add(42)
	g := r.Gauge("hp_queue_depth", "Ready-queue depth at the last scheduler decision point.")
	g.Set(7)
	h := r.Histogram("hp_run_makespan", "Makespans of completed runs in simulated milliseconds.", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 50, 500, 5000} {
		h.Observe(v)
	}
	cv := r.CounterVec("hp_http_requests_total", "HTTP requests served, by handler.", "handler")
	cv.With("index").Add(3)
	cv.With("schedule").Add(2)
	cv.With(`we"ird\nd`).Inc()
	hv := r.HistogramVec("hp_http_request_duration_seconds", "HTTP request latency, by handler.", "handler", []float64{0.01, 0.1})
	hv.With("index").Observe(0.005)
	hv.With("index").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryConcurrency hammers every metric kind from many goroutines
// while scraping, so `go test -race` proves the registry is safe under
// concurrent runs + scrapes. The workers keep adding label values to the
// labeled families while the scrapes run, so a scrape that reads a
// family's children without its lock races with an insert.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", ExpBuckets(1, 2, 8))
	cv := r.CounterVec("cv_total", "cv", "k")
	hv := r.HistogramVec("hv", "hv", "k", []float64{1, 10})
	dv := r.HDRVec("dv", "dv", "k")

	const workers, iters, grow = 8, 1000, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 300))
				cv.With(key).Inc()
				hv.With(key).Observe(float64(i % 20))
				dv.With(key).Record(int64(i))
				if i%grow == 0 {
					fresh := fmt.Sprintf("w%d_%d", w, i)
					cv.With(fresh).Inc()
					hv.With(fresh).Observe(1)
					dv.With(fresh).Record(1)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-scraped

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %v, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	var total float64
	for _, k := range []string{"a", "b", "c", "d"} {
		total += cv.With(k).Value()
	}
	if total != workers*iters {
		t.Errorf("counter vec total = %v, want %d", total, workers*iters)
	}
	var hdrTotal uint64
	for _, k := range []string{"a", "b", "c", "d"} {
		hdrTotal += dv.With(k).Count()
	}
	if hdrTotal != workers*iters {
		t.Errorf("HDR vec total = %d, want %d", hdrTotal, workers*iters)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// le="1" is cumulative: 0.5 and 1 both land at or under the bound.
	want := []uint64{2, 3, 4, 5}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum != want[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, cum, want[i])
		}
	}
	if h.Sum() != 106 || h.Count() != 5 {
		t.Errorf("sum=%v count=%d", h.Sum(), h.Count())
	}
}

func TestRegistryReRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	if b := r.Counter("x_total", "x"); a != b {
		t.Error("re-registering a counter did not return the original")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering as a different type did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestExpBucketsInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid buckets accepted")
		}
	}()
	ExpBuckets(0, 2, 4)
}
