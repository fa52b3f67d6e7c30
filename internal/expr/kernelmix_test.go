package expr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workloads"
)

func TestKernelMix(t *testing.T) {
	rows, err := KernelMixPool(context.Background(), engine.Default(), workloads.FactCholesky, 12, PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DAGAlgorithms()) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for name, share := range r.GPUShare {
			if share < 0 || share > 1 {
				t.Errorf("%s %s: share %v out of [0,1]", r.Algorithm, name, share)
			}
		}
	}
	// HeteroPrio's affinity rule: GEMM (factor 28.8) overwhelmingly on the
	// GPU, and at least as GPU-heavy as POTRF (factor 1.72).
	for _, r := range rows {
		if !strings.HasPrefix(r.Algorithm, "HeteroPrio") {
			continue
		}
		// (POTRF can legitimately reach 100% GPU share at small N: panels
		// are often the only ready task while GPUs idle, so no cross-kernel
		// ordering is asserted here.)
		if r.GPUShare["GEMM"] < 0.5 {
			t.Errorf("%s: GEMM GPU share %v < 0.5", r.Algorithm, r.GPUShare["GEMM"])
		}
	}
	md := KernelMixTable(rows).Markdown()
	if !strings.Contains(md, "GEMM") || !strings.Contains(md, "POTRF") {
		t.Errorf("table:\n%s", md)
	}
}

func TestKernelBase(t *testing.T) {
	if kernelBase("GEMM(3,2,1)") != "GEMM" || kernelBase("plain") != "plain" {
		t.Error("kernelBase wrong")
	}
}
