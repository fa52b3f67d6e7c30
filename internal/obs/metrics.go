package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The registry below is a deliberately small, dependency-free subset of
// the Prometheus data model: counters, gauges and fixed-bucket histograms,
// optionally keyed by a single label, exposed in the text format version
// 0.0.4. All metric operations are lock-free (atomics); only child lookup
// in a vec and family registration take a lock, so concurrent runs and
// concurrent scrapes never contend on the hot path.

// atomicFloat is a float64 with atomic Add/Store/Load via its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v, which must not be negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add increments the value by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds), plus a
// running sum and count. An implicit +Inf bucket always exists.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplied by factor at each step.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: invalid exponential buckets")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// CounterVec is a family of Counters keyed by the value of one label.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	kids  map[string]*Counter
}

// With returns (creating if needed) the counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.kids[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.kids[value]; c == nil {
		c = &Counter{}
		v.kids[value] = c
	}
	return c
}

// HistogramVec is a family of Histograms keyed by the value of one label.
type HistogramVec struct {
	label string
	upper []float64
	mu    sync.RWMutex
	kids  map[string]*Histogram
}

// With returns (creating if needed) the histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.kids[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.kids[value]; h == nil {
		h = newHistogram(v.upper)
		v.kids[value] = h
	}
	return h
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// family is one registered metric family.
type family struct {
	name, help, typ string
	metric          any // *Counter, *Gauge, *Histogram, *CounterVec, *HistogramVec
}

// Registry holds metric families and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// register returns the existing family for name after checking the type
// matches, or records a new one. Re-registering with a different type or
// shape panics: that is always a programming error.
func (r *Registry) register(name, help, typ string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
		}
		return f.metric
	}
	m := mk()
	r.fams[name] = &family{name: name, help: help, typ: typ, metric: m}
	return m
}

// Counter registers (or returns the existing) counter with the name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) gauge with the name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or returns the existing) histogram with the name.
// buckets are the upper bounds and must be sorted increasing.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	return r.register(name, help, "histogram", func() any { return newHistogram(buckets) }).(*Histogram)
}

// CounterVec registers (or returns the existing) counter family keyed by
// the given label name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.register(name, help, "counter", func() any {
		return &CounterVec{label: label, kids: map[string]*Counter{}}
	}).(*CounterVec)
}

// HistogramVec registers (or returns the existing) histogram family keyed
// by the given label name.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	return r.register(name, help, "histogram", func() any {
		return &HistogramVec{label: label, upper: buckets, kids: map[string]*Histogram{}}
	}).(*HistogramVec)
}

// WritePrometheus renders every registered family in the text exposition
// format, families and label values in lexicographic order so the output
// is deterministic (golden-tested).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch m := f.metric.(type) {
		case *Counter:
			writeSample(&b, f.name, "", "", m.Value())
		case *Gauge:
			writeSample(&b, f.name, "", "", m.Value())
		case *Histogram:
			writeHistogram(&b, f.name, "", "", m)
		case *CounterVec:
			m.mu.RLock()
			for _, v := range sortedKeys(m.kids) {
				writeSample(&b, f.name, m.label, v, m.kids[v].Value())
			}
			m.mu.RUnlock()
		case *HistogramVec:
			m.mu.RLock()
			for _, v := range sortedKeys(m.kids) {
				writeHistogram(&b, f.name, m.label, v, m.kids[v])
			}
			m.mu.RUnlock()
		case *HDRHistogram:
			writeHDR(&b, f.name, "", "", m)
		case *HDRVec:
			m.mu.RLock()
			for _, v := range sortedKeys(m.kids) {
				writeHDR(&b, f.name, m.label, v, m.kids[v])
			}
			m.mu.RUnlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSample emits one sample line, with up to one label pair.
func writeSample(b *strings.Builder, name, label, value string, v float64) {
	b.WriteString(name)
	if label != "" {
		fmt.Fprintf(b, `{%s="%s"}`, label, escapeLabel(value))
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(b *strings.Builder, name, label, value string, h *Histogram) {
	labels := func(le string) string {
		if label == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`{%s="%s",le="%s"}`, label, escapeLabel(value), le)
	}
	var cum uint64
	for i, up := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labels(formatValue(up)), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labels("+Inf"), cum)
	suffix := ""
	if label != "" {
		suffix = fmt.Sprintf(`{%s="%s"}`, label, escapeLabel(value))
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.Count())
}

// writeHDR emits an HDR histogram as cumulative _bucket series at the
// occupied bucket boundaries (plus +Inf), then _sum and _count. Buckets
// carrying an exemplar get an OpenMetrics-style exemplar suffix
// (`# {trace_id="..."} value`), which is how a tail bucket links to the
// trace of the request that landed in it.
func writeHDR(b *strings.Builder, name, label, value string, h *HDRHistogram) {
	labels := func(le string) string {
		if label == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`{%s="%s",le="%s"}`, label, escapeLabel(value), le)
	}
	for _, bk := range h.NonEmptyBuckets() {
		fmt.Fprintf(b, "%s_bucket%s %d", name, labels(strconv.FormatInt(bk.Hi, 10)), bk.Cum)
		if bk.ExemplarID != 0 {
			fmt.Fprintf(b, ` # {trace_id="%s"} %d`, FormatID(bk.ExemplarID), bk.ExemplarValue)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labels("+Inf"), h.Count())
	suffix := ""
	if label != "" {
		suffix = fmt.Sprintf(`{%s="%s"}`, label, escapeLabel(value))
	}
	fmt.Fprintf(b, "%s_sum%s %d\n", name, suffix, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.Count())
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// Handler returns an http.Handler serving the exposition (a /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
