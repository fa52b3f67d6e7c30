package obs

import (
	"strings"
	"testing"
)

func renderRegistry(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func parseText(t *testing.T, text string) *Exposition {
	t.Helper()
	exp, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text)
	}
	return exp
}

func TestParseExpositionRoundTripsRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("hp_m_requests_total", "requests").Add(7)
	r.Gauge("hp_m_inflight", "inflight").Set(3)
	r.CounterVec("hp_m_by_code_total", "by code", "code").With("200").Add(5)
	r.CounterVec("hp_m_by_code_total", "by code", "code").With("500").Add(1)
	h := r.Histogram("hp_m_seconds", "latency", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(2)
	hdr := r.HDR("hp_m_us", "hdr latency")
	hdr.Record(3)
	hdr.RecordExemplar(5000, 0xabcdef)

	text := renderRegistry(t, r)
	if !strings.Contains(text, "# {") {
		t.Fatalf("precondition: registry did not render an exemplar:\n%s", text)
	}
	exp := parseText(t, text)
	if got := exp.Value("hp_m_requests_total"); got != 7 {
		t.Fatalf("counter = %v", got)
	}
	if got := exp.Value("hp_m_inflight"); got != 3 {
		t.Fatalf("gauge = %v", got)
	}
	if got := exp.Value("hp_m_by_code_total"); got != 6 {
		t.Fatalf("labelled counter sum = %v", got)
	}
	// Histogram series (buckets, _sum, _count) are not plain values.
	for _, name := range []string{"hp_m_seconds", "hp_m_seconds_count", "hp_m_us", "hp_m_us_sum"} {
		if got := exp.Value(name); got != 0 {
			t.Fatalf("histogram series %s read as plain value %v", name, got)
		}
	}
}

func TestParseExpositionErrors(t *testing.T) {
	for _, bad := range []string{
		"hp_only_name",
		"hp_x not-a-number",
		"hp_b{le=\"oops\" 3",
		"# TYPE hp_h histogram\nhp_h_bucket{le=\"oops\"} 3",
		"# TYPE hp_h histogram\nhp_h_bucket{code=\"200\"} 3",
	} {
		if _, err := ParseExposition(bad); err == nil {
			t.Fatalf("ParseExposition(%q) accepted garbage", bad)
		}
	}
	// Unknown comments and blank lines are fine.
	exp := parseText(t, "\n# EOF\n# HELP hp_ok_total fine\n# TYPE hp_ok_total counter\nhp_ok_total 1\n\n")
	if exp.Value("hp_ok_total") != 1 {
		t.Fatalf("tolerant parse failed")
	}
}

func TestExpositionAccessorsAbsent(t *testing.T) {
	exp := parseText(t, "")
	if exp.Value("nope") != 0 {
		t.Fatalf("absent Value != 0")
	}
}
