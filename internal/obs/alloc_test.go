package obs

import (
	"runtime/debug"
	"testing"
)

// TestHDRRecordAllocFree: hpserve records every request's and every
// phase's latency, so Record and RecordExemplar must not allocate.
func TestHDRRecordAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := NewHDR()
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { v += 7919; h.Record(v) }); n != 0 {
		t.Errorf("Record allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { v += 7919; h.RecordExemplar(v, uint64(v)) }); n != 0 {
		t.Errorf("RecordExemplar allocates %v times per call", n)
	}
}

// TestSpanCycleAllocFree: in the steady state of a long-lived trace (past
// the retention cap, with the span pool warm) a StartChild, Annotate,
// AnnotateInt, End cycle allocates nothing. Under the race detector
// sync.Pool drops a quarter of the spans put back, so some cycles
// allocate a fresh span; AllocsPerRun's average, rounded down, reads
// that as zero and an allocation in every cycle as one.
func TestSpanCycleAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := NewTracer(1)
	root := tr.StartTrace("steady")
	for i := 0; i <= maxSpansPerTrace; i++ {
		root.StartChild("warm").End()
	}
	n := testing.AllocsPerRun(1000, func() {
		sp := root.StartChild("phase")
		sp.Annotate("outcome", "hit")
		sp.AnnotateInt("cell_index", 3)
		sp.End()
	})
	if n != 0 {
		t.Errorf("a span cycle allocates %v times", n)
	}
}
