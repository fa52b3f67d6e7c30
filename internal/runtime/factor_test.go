package runtime

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tile"
	"repro/internal/workloads"
)

// TestFactorGraphsAreWorkloads: each live factorization graph is the
// simulator's graph of the same tile count — the same tasks under the
// same names and IDs, with the same edges in the same order — so a live
// run and a simulated run schedule one DAG.
func TestFactorGraphsAreWorkloads(t *testing.T) {
	const b = 2
	for N := 1; N <= 8; N++ {
		td, err := tile.NewTiled(tile.RandomSPD(N*b, rand.New(rand.NewSource(int64(N)))), b)
		if err != nil {
			t.Fatal(err)
		}
		chol, err := CholeskyGraph(td, CholeskyEstimates{B: b})
		if err != nil {
			t.Fatal(err)
		}
		lu, err := LUGraph(td, LUEstimates{B: b})
		if err != nil {
			t.Fatal(err)
		}
		qr, err := QRGraph(td, QREstimates{B: b})
		if err != nil {
			t.Fatal(err)
		}
		for fact, g := range map[workloads.Factorization]*Graph{
			workloads.FactCholesky: chol, workloads.FactLU: lu, workloads.FactQR: qr,
		} {
			want, err := workloads.Build(fact, N)
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != want.Len() || g.d.Edges() != want.Edges() {
				t.Fatalf("%s N=%d: %d tasks and %d edges, workloads has %d and %d", fact, N, g.Len(), g.d.Edges(), want.Len(), want.Edges())
			}
			for id := 0; id < g.Len(); id++ {
				if got, w := g.tasks[id].Name, want.Task(id).Name; got != w {
					t.Fatalf("%s N=%d: task %d is %q, workloads has %q", fact, N, id, got, w)
				}
				if !reflect.DeepEqual(g.d.Succs(id), want.Succs(id)) || !reflect.DeepEqual(g.d.Preds(id), want.Preds(id)) {
					t.Fatalf("%s N=%d: task %d has edges %v/%v, workloads has %v/%v",
						fact, N, id, g.d.Preds(id), g.d.Succs(id), want.Preds(id), want.Succs(id))
				}
			}
		}
	}
}
