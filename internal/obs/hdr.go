package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// HDR-style latency histogram: log-linear bucketing in the spirit of
// HdrHistogram/DDSketch, sized for latency measurements. Values are
// non-negative int64s in whatever unit the caller picks (this repository
// records microseconds); buckets below hdrSubCount have width 1 and above
// it every power of two is split into hdrSubCount linear sub-buckets, so
// the relative quantile error is bounded by 1/hdrSubCount (~3.1%)
// everywhere. Recording is lock-free (a handful of atomics, zero
// allocations — BenchmarkHDRRecord gates this) and two histograms with
// the same layout merge by bucket-wise addition, which commutes, so
// per-worker histograms combine deterministically.

const (
	// hdrSubBits sets the resolution: 2^hdrSubBits linear sub-buckets per
	// power of two, bounding relative error at 2^-hdrSubBits.
	hdrSubBits  = 5
	hdrSubCount = 1 << hdrSubBits
	// hdrMaxValue is the largest trackable value; larger records clamp.
	// At microsecond resolution it is ~146 thousand years of latency.
	hdrMaxValue = int64(1) << 62
)

// hdrNumBuckets is the fixed counter-array size covering [0, hdrMaxValue].
var hdrNumBuckets = hdrBucketIndex(hdrMaxValue) + 1

// hdrBucketIndex maps a value in [0, hdrMaxValue] to its bucket.
func hdrBucketIndex(v int64) int {
	if v < hdrSubCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	shift := e - hdrSubBits
	return shift*hdrSubCount + int(v>>uint(shift))
}

// HDRBucketBounds returns the inclusive value range [lo, hi] of bucket i:
// every value recorded into bucket i satisfies lo <= v <= hi.
func HDRBucketBounds(i int) (lo, hi int64) {
	if i < hdrSubCount {
		return int64(i), int64(i)
	}
	shift := i/hdrSubCount - 1
	sub := int64(i - shift*hdrSubCount) // in [hdrSubCount, 2*hdrSubCount)
	lo = sub << uint(shift)
	hi = (sub+1)<<uint(shift) - 1
	return lo, hi
}

// HDRHistogram is a mergeable log-linear latency histogram with
// per-bucket exemplars. The zero value is not usable; call NewHDR. All
// methods are safe for concurrent use; Record and RecordExemplar are
// lock-free and allocation-free.
type HDRHistogram struct {
	counts []atomic.Uint64
	// Exemplars: per bucket, the ID (e.g. a trace ID; 0 = none) and value
	// of one representative observation. The two words are not written
	// atomically together — an exemplar is a debugging pointer, not an
	// accounting quantity — but each word is itself race-free.
	exIDs  []atomic.Uint64
	exVals []atomic.Int64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64
}

// NewHDR returns an empty histogram. The bucket layout is fixed (see the
// package constants), so any two HDRHistograms are merge-compatible.
func NewHDR() *HDRHistogram {
	h := &HDRHistogram{
		counts: make([]atomic.Uint64, hdrNumBuckets),
		exIDs:  make([]atomic.Uint64, hdrNumBuckets),
		exVals: make([]atomic.Int64, hdrNumBuckets),
	}
	h.min.Store(math.MaxInt64)
	return h
}

// clampHDR folds out-of-range values into the trackable range.
func clampHDR(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > hdrMaxValue {
		return hdrMaxValue
	}
	return v
}

// Record adds one observation without allocating
// (TestHDRRecordAllocFree).
func (h *HDRHistogram) Record(v int64) {
	v = clampHDR(v)
	h.counts[hdrBucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
}

// RecordExemplar adds one observation and, when id is non-zero, installs
// it as the bucket's exemplar. Later exemplars overwrite earlier ones, so
// each bucket points at a recent representative — following the exemplar
// of a tail bucket leads to a live trace of a slow request. Like Record,
// it does not allocate.
func (h *HDRHistogram) RecordExemplar(v int64, id uint64) {
	h.Record(v)
	if id == 0 {
		return
	}
	i := hdrBucketIndex(clampHDR(v))
	h.exVals[i].Store(clampHDR(v))
	h.exIDs[i].Store(id)
}

// Count returns the number of observations.
func (h *HDRHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all recorded (clamped) values.
func (h *HDRHistogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value (0 when empty).
func (h *HDRHistogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest recorded value (0 when empty).
func (h *HDRHistogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (h *HDRHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the p-quantile (p in [0, 1]): the
// upper bound of the bucket holding the observation of rank ceil(p*n),
// clamped to the recorded maximum. The estimate is deterministic given
// the recorded multiset and within one bucket width (<= 1/32 relative
// error) of the true order statistic; it is non-decreasing in p.
func (h *HDRHistogram) Quantile(p float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			_, hi := HDRBucketBounds(i)
			if m := h.max.Load(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.Max()
}

// HDRBucket is one non-empty bucket in a snapshot.
type HDRBucket struct {
	// Lo and Hi bound the values recorded in the bucket (inclusive).
	Lo, Hi int64
	// Count is the bucket's own count; Cum is cumulative including it.
	Count, Cum uint64
	// ExemplarID/ExemplarValue identify one representative observation
	// (ID 0 = no exemplar recorded).
	ExemplarID    uint64
	ExemplarValue int64
}

// NonEmptyBuckets snapshots the occupied buckets in increasing value
// order, with cumulative counts — the exposition shape.
func (h *HDRHistogram) NonEmptyBuckets() []HDRBucket {
	var out []HDRBucket
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		lo, hi := HDRBucketBounds(i)
		out = append(out, HDRBucket{
			Lo: lo, Hi: hi, Count: c, Cum: cum,
			ExemplarID: h.exIDs[i].Load(), ExemplarValue: h.exVals[i].Load(),
		})
	}
	return out
}

// HDRVec is a family of HDRHistograms keyed by the value of one label.
type HDRVec struct {
	label string
	mu    sync.RWMutex
	kids  map[string]*HDRHistogram
}

// With returns (creating if needed) the histogram for the label value.
func (v *HDRVec) With(value string) *HDRHistogram {
	v.mu.RLock()
	h := v.kids[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.kids[value]; h == nil {
		h = NewHDR()
		v.kids[value] = h
	}
	return h
}

// HDR registers (or returns the existing) HDR histogram with the name.
func (r *Registry) HDR(name, help string) *HDRHistogram {
	return r.register(name, help, "histogram", func() any { return NewHDR() }).(*HDRHistogram)
}

// HDRVec registers (or returns the existing) HDR histogram family keyed
// by the given label name.
func (r *Registry) HDRVec(name, help, label string) *HDRVec {
	return r.register(name, help, "histogram", func() any {
		return &HDRVec{label: label, kids: map[string]*HDRHistogram{}}
	}).(*HDRVec)
}
