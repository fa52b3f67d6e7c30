package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestHDRBucketIndexBoundsRoundTrip(t *testing.T) {
	// Every bucket's bounds must contain exactly the values that map to it.
	for i := 0; i < hdrNumBuckets; i++ {
		lo, hi := HDRBucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if got := hdrBucketIndex(lo); got != i {
			t.Fatalf("bucket %d: lo %d maps to bucket %d", i, lo, got)
		}
		if got := hdrBucketIndex(hi); got != i {
			t.Fatalf("bucket %d: hi %d maps to bucket %d", i, hi, got)
		}
	}
	// Buckets tile the range with no gaps.
	for i := 1; i < hdrNumBuckets; i++ {
		_, prevHi := HDRBucketBounds(i - 1)
		lo, _ := HDRBucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", i-1, prevHi, i, lo)
		}
	}
	if hdrBucketIndex(hdrMaxValue) != hdrNumBuckets-1 {
		t.Fatalf("hdrMaxValue not in last bucket")
	}
}

func TestHDRRelativeErrorBound(t *testing.T) {
	// Bucket width relative to its lower bound is <= 1/hdrSubCount for all
	// values >= hdrSubCount (below that, buckets are exact).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		v := int64(hdrSubCount) + rng.Int63n(int64(1)<<40)
		lo, hi := HDRBucketBounds(hdrBucketIndex(v))
		if v < lo || v > hi {
			t.Fatalf("v=%d outside its bucket [%d,%d]", v, lo, hi)
		}
		if relErr := float64(hi-lo) / float64(lo); relErr > 1.0/hdrSubCount {
			t.Fatalf("v=%d bucket [%d,%d] relative width %g > %g", v, lo, hi, relErr, 1.0/hdrSubCount)
		}
	}
}

func TestHDRBasicStats(t *testing.T) {
	h := NewHDR()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Min() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero")
	}
	for _, v := range []int64{10, 20, 30, 40} {
		h.Record(v)
	}
	if h.Count() != 4 || h.Sum() != 100 || h.Max() != 40 || h.Min() != 10 || h.Mean() != 25 {
		t.Fatalf("stats: count=%d sum=%d max=%d min=%d mean=%g",
			h.Count(), h.Sum(), h.Max(), h.Min(), h.Mean())
	}
	// Out-of-range records clamp instead of panicking.
	h.Record(-5)
	h.Record(hdrMaxValue + 100)
	if h.Min() != 0 || h.Max() != hdrMaxValue {
		t.Fatalf("clamping: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHDRQuantileExactBelowLinearRange(t *testing.T) {
	// Values < hdrSubCount land in width-1 buckets: quantiles are exact.
	h := NewHDR()
	for v := int64(1); v <= 20; v++ {
		h.Record(v)
	}
	cases := []struct {
		p    float64
		want int64
	}{{0, 1}, {0.05, 1}, {0.5, 10}, {0.95, 19}, {1, 20}}
	for _, c := range cases {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestHDRQuantilePropertyMonotoneAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		h := NewHDR()
		n := 1 + rng.Intn(2000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << uint(5+rng.Intn(30)))
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		prev := int64(-1)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			q := h.Quantile(p)
			if q < prev {
				t.Fatalf("trial %d: quantile not monotone: Quantile(%g)=%d < previous %d", trial, p, q, prev)
			}
			prev = q
			// The estimate is >= the true order statistic (bucket upper
			// bound) and within one bucket relative width of it.
			rank := int(math.Ceil(p * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			if q < exact {
				t.Fatalf("trial %d: Quantile(%g)=%d < exact order statistic %d", trial, p, q, exact)
			}
			limit := exact + exact/hdrSubCount + 1
			if q > limit {
				t.Fatalf("trial %d: Quantile(%g)=%d exceeds error bound %d (exact %d)", trial, p, q, limit, exact)
			}
		}
		if h.Quantile(1) > h.Max() {
			t.Fatalf("trial %d: Quantile(1)=%d > max %d", trial, h.Quantile(1), h.Max())
		}
	}
}

func TestHDRBucketInvariants(t *testing.T) {
	h := NewHDR()
	rng := rand.New(rand.NewSource(3))
	var total uint64
	for i := 0; i < 3000; i++ {
		h.Record(rng.Int63n(1 << 22))
		total++
	}
	var sumCounts uint64
	var prevHi int64 = -1
	for _, b := range h.NonEmptyBuckets() {
		if b.Lo <= prevHi {
			t.Fatalf("buckets out of order: lo %d after hi %d", b.Lo, prevHi)
		}
		prevHi = b.Hi
		sumCounts += b.Count
		if b.Cum != sumCounts {
			t.Fatalf("cumulative count mismatch: %d vs %d", b.Cum, sumCounts)
		}
	}
	if sumCounts != total {
		t.Fatalf("bucket counts sum %d, recorded %d", sumCounts, total)
	}
}

func TestHDRExemplars(t *testing.T) {
	h := NewHDR()
	h.RecordExemplar(100, 0xabc) // bucket of 100
	h.RecordExemplar(3, 0)       // no exemplar stored
	var found bool
	for _, b := range h.NonEmptyBuckets() {
		if b.Lo <= 100 && 100 <= b.Hi {
			if b.ExemplarID != 0xabc || b.ExemplarValue != 100 {
				t.Fatalf("exemplar = (%x, %d)", b.ExemplarID, b.ExemplarValue)
			}
			found = true
		} else if b.ExemplarID != 0 {
			t.Fatalf("unexpected exemplar in bucket [%d,%d]", b.Lo, b.Hi)
		}
	}
	if !found {
		t.Fatalf("bucket holding 100 not found")
	}
}

func TestHDRConcurrentRecord(t *testing.T) {
	h := NewHDR()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.RecordExemplar(rng.Int63n(1<<18), uint64(seed))
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestHDRVecAndExposition(t *testing.T) {
	r := NewRegistry()
	vec := r.HDRVec("hp_latency_request_us", "request latency", "kind")
	vec.With("schedule").RecordExemplar(1234, 0xdeadbeef)
	vec.With("compare").Record(50)
	solo := r.HDR("hp_latency_solo_us", "solo")
	solo.Record(7)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hp_latency_request_us histogram",
		`hp_latency_request_us_bucket{kind="compare",le="50"} 1`,
		`hp_latency_request_us_bucket{kind="schedule",le="+Inf"} 1`,
		`hp_latency_request_us_sum{kind="schedule"} 1234`,
		`hp_latency_request_us_count{kind="compare"} 1`,
		`# {trace_id="00000000deadbeef"} 1234`,
		"hp_latency_solo_us_bucket{le=\"7\"} 1",
		"hp_latency_solo_us_sum 7",
		"hp_latency_solo_us_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Same-name re-registration returns the same underlying family.
	if r.HDRVec("hp_latency_request_us", "request latency", "kind") != vec {
		t.Fatalf("HDRVec re-registration returned a new vec")
	}
}
