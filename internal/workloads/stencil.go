package workloads

import (
	"strconv"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Wavefront builds an n x n 2D wavefront (stencil sweep) DAG: cell (i,j)
// depends on its north and west neighbours. Border cells use the border
// task times, interior cells the interior times — mirroring sweeps whose
// interior kernels vectorize well on accelerators while boundary handling
// does not.
func Wavefront(n int, border, interior platform.Task) *dag.Graph {
	validateTiles(n)
	g := dag.New()
	ids := make([][]int, n)
	for i := 0; i < n; i++ {
		ids[i] = make([]int, n)
		for j := 0; j < n; j++ {
			t := interior
			if i == 0 || j == 0 {
				t = border
			}
			t.Name = tileName("cell", i, j)
			ids[i][j] = g.AddTask(t)
			if i > 0 {
				g.AddEdge(ids[i-1][j], ids[i][j])
			}
			if j > 0 {
				g.AddEdge(ids[i][j-1], ids[i][j])
			}
		}
	}
	return g
}

// DefaultWavefront returns a wavefront with the STF example's task times:
// borders barely accelerated, interiors strongly accelerated.
func DefaultWavefront(n int) *dag.Graph {
	border := platform.Task{CPUTime: 3, GPUTime: 2.5}
	interior := platform.Task{CPUTime: 10, GPUTime: 0.8}
	return Wavefront(n, border, interior)
}

// BagOfChains builds c independent chains of length l (a classic runtime
// stress shape: lots of parallelism, long individual critical paths).
// Chain i alternates the two task profiles so both classes stay relevant.
func BagOfChains(c, l int, even, odd platform.Task) *dag.Graph {
	validateTiles(c)
	validateTiles(l)
	g := dag.New()
	for i := 0; i < c; i++ {
		prev := -1
		for j := 0; j < l; j++ {
			t := even
			if j%2 == 1 {
				t = odd
			}
			t.Name = chainName(i, j)
			id := g.AddTask(t)
			if prev >= 0 {
				g.AddEdge(prev, id)
			}
			prev = id
		}
	}
	return g
}

// chainName returns "chain3[7]" for task 7 of chain 3, the bytes
// fmt.Sprintf("chain%d[%d]", 3, 7) gives, with the string as its only
// allocation.
func chainName(i, j int) string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], "chain"...), int64(i), 10)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(j), 10)
	return string(append(b, ']'))
}
