package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// loopCase is one workload the kernel-loop digests run on: a
// factorization on the paper's 20+4 platform, or on a one-class platform.
type loopCase struct {
	fact workloads.Factorization
	pl   platform.Platform
}

func (c loopCase) String() string { return fmt.Sprintf("%s@%d+%d", c.fact, c.pl.CPUs, c.pl.GPUs) }

var loopCases = []loopCase{
	{workloads.FactCholesky, platform.NewPlatform(20, 4)},
	{workloads.FactQR, platform.NewPlatform(20, 4)},
	{workloads.FactLU, platform.NewPlatform(20, 4)},
	{workloads.FactQR, platform.NewPlatform(6, 0)},
	{workloads.FactLU, platform.NewPlatform(0, 3)},
}

// jitter is the seeded log-normal noise model of the robustness study
// (sigma 0.3): one actual duration per task and class, unknown to the
// scheduler.
func jitter(g *dag.Graph) func(platform.Task, platform.Kind) float64 {
	rng := rand.New(rand.NewSource(11))
	actual := make([][platform.NumKinds]float64, g.Len())
	for id := range actual {
		t := g.Task(id)
		actual[id][platform.CPU] = t.CPUTime * math.Exp(0.3*rng.NormFloat64())
		actual[id][platform.GPU] = t.GPUTime * math.Exp(0.3*rng.NormFloat64())
	}
	return func(t platform.Task, k platform.Kind) float64 { return actual[t.ID][k] }
}

// loopEntries are the schedulers driven by sim.Kernel's event loop. Each
// runs on a freshly built graph with min bottom-level priorities (avg for
// DualHP-avg) at N=8, except HLP at N=6: its DAG allocation LP takes
// seconds at N=8, and its list phase is ERLS's.
var loopEntries = []struct {
	name string
	n    int
	run  func(g *dag.Graph, in platform.Instance, pl platform.Platform) (*sim.Schedule, error)
}{
	{"ERLS", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return ERLSDAG(g, pl)
	}},
	{"HLP", 6, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return HLPDAG(g, pl)
	}},
	{"CLB2C", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return CLB2CDAG(g, pl)
	}},
	{"PriorityAware", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return PriorityAwareDAG(g, pl)
	}},
	{"Affinity", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return AffinityDAG(g, pl)
	}},
	{"DualHP-fifo", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return DualHPDAG(g, pl, RankFIFO)
	}},
	{"DualHP-avg", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return DualHPDAGWithPriorities(g, pl, RankAvg)
	}},
	{"DualHP-min", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return DualHPDAG(g, pl, RankMin)
	}},
	{"MCT", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return MCTDAG(g, pl)
	}},
	{"DualHP-min-timed", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return DualHPDAGTimed(g, pl, RankMin, jitter(g))
	}},
	{"MCT-timed", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return MCTDAGTimed(g, pl, jitter(g))
	}},
	{"HEFT-min-timed", 8, func(g *dag.Graph, _ platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return HEFTTimed(g, pl, dag.WeightMin, jitter(g))
	}},
	{"AffinityIndependent", 8, func(_ *dag.Graph, in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
		return AffinityIndependent(in, pl)
	}},
}

// loopGolden pins the SHA-256 of Schedule.CSV() per "<entry>/<case>".
// CSV() prints entries in start order, so a change in which completion
// a loop retires before its next decision round shows up here even when
// the makespan does not move.
var loopGolden = map[string]string{
	"ERLS/cholesky@20+4":                "958f1be93526d0a30902e3b0b5baf2f6feb474fd3199d49a814a0cc60ce5fdf0",
	"ERLS/qr@20+4":                      "6cb8e970958a22cff49e35bb8649dffd6ad7e4039d432451e2f6648003d76010",
	"ERLS/lu@20+4":                      "f10bec34fe80f85f79c8f3588353ab75d89af148c216b41baa17b382fd22e6bb",
	"ERLS/qr@6+0":                       "462b6718f5bb0c7073be96fc148d1b0bdc597934e466441923ec27b6b6c31785",
	"ERLS/lu@0+3":                       "241f81a4baa95ca285ded9fcfec33725ec1e007bbb68ca642302d2b85f6f5832",
	"HLP/cholesky@20+4":                 "913507ed6d972fc28e034bdb1aca51745d728f518e5c5e9ec549c755d0bf4785",
	"HLP/qr@20+4":                       "81d5b728ca97b8480b87e63e736f5ecdd4a1db65106100937dd46a0296935e6e",
	"HLP/lu@20+4":                       "09a3b9cd82176ecdc9f1d91acb9b42cd58d092a61bd6f9162f7d7aa71738742c",
	"HLP/qr@6+0":                        "3bf1f752015ea60bd613c0220cd4029723a5fb16f76c56c824883a65dc753645",
	"HLP/lu@0+3":                        "2f5b04acde7e2553850fe000f929deb122f15d70dbc1d9ed3685a424c074abaa",
	"CLB2C/cholesky@20+4":               "1571f08319ba0e37f8c1d8b75cd42b94792dc7df1663989b6ddc9d689ee2a8ad",
	"CLB2C/qr@20+4":                     "d933eb3e765ac6f8e30ca166c0b0d52e87093e07eabdaec4bba2d243f1f51ee8",
	"CLB2C/lu@20+4":                     "85aee1a9d36ee991db61a61416ea31c2219b259d82f788c95eb04ce3d583b298",
	"CLB2C/qr@6+0":                      "1292886fe01e2f210f294c873ebed434bfdb8cf327154e1cb1cef9a4894e3fb8",
	"CLB2C/lu@0+3":                      "c160d4c1b8cd7ab47be341c9486c632335d87acbef56f4ac5d670b1d6325a5e6",
	"PriorityAware/cholesky@20+4":       "c47b97108d47eb9a324a86e66a5006eadfc147d966d18b100d2723a53ff419ab",
	"PriorityAware/qr@20+4":             "7b258aa269850cc46c4ba5e3d26f0128b738c69875eed9a45d733d44ad8be8dd",
	"PriorityAware/lu@20+4":             "b6e5d75e17f8559b4b8aad6b0964d14f943efe00302d4e313744f2c6b9b8e362",
	"PriorityAware/qr@6+0":              "462b6718f5bb0c7073be96fc148d1b0bdc597934e466441923ec27b6b6c31785",
	"PriorityAware/lu@0+3":              "241f81a4baa95ca285ded9fcfec33725ec1e007bbb68ca642302d2b85f6f5832",
	"Affinity/cholesky@20+4":            "1571f08319ba0e37f8c1d8b75cd42b94792dc7df1663989b6ddc9d689ee2a8ad",
	"Affinity/qr@20+4":                  "d933eb3e765ac6f8e30ca166c0b0d52e87093e07eabdaec4bba2d243f1f51ee8",
	"Affinity/lu@20+4":                  "85aee1a9d36ee991db61a61416ea31c2219b259d82f788c95eb04ce3d583b298",
	"Affinity/qr@6+0":                   "1292886fe01e2f210f294c873ebed434bfdb8cf327154e1cb1cef9a4894e3fb8",
	"Affinity/lu@0+3":                   "c160d4c1b8cd7ab47be341c9486c632335d87acbef56f4ac5d670b1d6325a5e6",
	"DualHP-fifo/cholesky@20+4":         "10e627ad13d042b2c791fee119f104262b5fd7f0a34f471621e5af9e35b733ed",
	"DualHP-fifo/qr@20+4":               "4b6771309de43fb5a9296097bff9cb4e3fdad07703b4d7ca7b4bc0b66f4387fa",
	"DualHP-fifo/lu@20+4":               "c721128a3e54835dcfc20cef6602ba5a74c4b79beeb799cbc8374ad29b2d012b",
	"DualHP-fifo/qr@6+0":                "a79298e415f2281b86663ef7e397639d4a555b5f2404c6b7d57cfd8484a0edb7",
	"DualHP-fifo/lu@0+3":                "402fd49d4ac9c6d2cf4a89da50d5b9d000ef9b01146693a7984ab4c192f4c704",
	"DualHP-avg/cholesky@20+4":          "314d6519e55b755348d14e33c33902b79d84d23faec547cfba4c7ce65522191b",
	"DualHP-avg/qr@20+4":                "3a12d134cfdf65a75ab5fdf6d8415c36914e8f67de8db0d1c68a466e692e6ea3",
	"DualHP-avg/lu@20+4":                "2aec42a3a8e044c58f0e1eb43f868a74fe2eef23e497126d183ffc8a06972f4f",
	"DualHP-avg/qr@6+0":                 "64bc21708d73e4c3336754a7548154c193101296e5fe8ee3efef7c2b3f7c14d0",
	"DualHP-avg/lu@0+3":                 "241f81a4baa95ca285ded9fcfec33725ec1e007bbb68ca642302d2b85f6f5832",
	"DualHP-min/cholesky@20+4":          "49eb07764a3996db02bcd4a6b95a7f1b52ec5c14fe6eebae1e4f38a98dc0e48f",
	"DualHP-min/qr@20+4":                "2b1eb6a3f8376be6a98396c0baf3c54f4f50c7bc36c3f746a2d05fdd8d8e241d",
	"DualHP-min/lu@20+4":                "de87988ee2a3b097889d365f51f11e26060e023644aa091f56c33c166e1ac1a4",
	"DualHP-min/qr@6+0":                 "462b6718f5bb0c7073be96fc148d1b0bdc597934e466441923ec27b6b6c31785",
	"DualHP-min/lu@0+3":                 "241f81a4baa95ca285ded9fcfec33725ec1e007bbb68ca642302d2b85f6f5832",
	"MCT/cholesky@20+4":                 "c66da347b7d95b2c92b20050fa6ce35ea9cfc44a3a433ab85e8dfa592a6ccac2",
	"MCT/qr@20+4":                       "f6bdff6329fcacdda0b8b793def11f78bfb02ad3d26411ab9c1de88e89b6a871",
	"MCT/lu@20+4":                       "03ad0b54f251d334bbc21786b65060fd0ede71c2145ccc1766afb31640b32f23",
	"MCT/qr@6+0":                        "462b6718f5bb0c7073be96fc148d1b0bdc597934e466441923ec27b6b6c31785",
	"MCT/lu@0+3":                        "241f81a4baa95ca285ded9fcfec33725ec1e007bbb68ca642302d2b85f6f5832",
	"DualHP-min-timed/cholesky@20+4":    "da31a1e09f1353a303ae0310af6339f77ff01c3fb505bfd643a204e445f966b9",
	"DualHP-min-timed/qr@20+4":          "76a0005e69febdb30d715e0f8f882e9f053a0b9cb9c4264961080141076121d5",
	"DualHP-min-timed/lu@20+4":          "bf6e1856321b63820dd4ac7ae27d645ec08d11084f04f21917fabe4b8c75602e",
	"DualHP-min-timed/qr@6+0":           "aab6cbce576692deedf4eab8b43909d40e332319ac90d59e659f76da65c61cc0",
	"DualHP-min-timed/lu@0+3":           "00e5ffacb625483ed7dc4149d419718b1cb17d52f9be3fb261ab27023532cbd6",
	"MCT-timed/cholesky@20+4":           "ec8a5b8165110a9bf077cc6b4278c225f4d6a0d160a52555f7e8c4b871e71a72",
	"MCT-timed/qr@20+4":                 "c8e54d0bc474026bd9fd6a9b505df553d3563cc1525992f416da9aaaeeb278fe",
	"MCT-timed/lu@20+4":                 "92a6f4c4eb5ad71ad84622cdddb2f4f4cca14ab5506d3979b72b5901cfb78e38",
	"MCT-timed/qr@6+0":                  "aab6cbce576692deedf4eab8b43909d40e332319ac90d59e659f76da65c61cc0",
	"MCT-timed/lu@0+3":                  "00e5ffacb625483ed7dc4149d419718b1cb17d52f9be3fb261ab27023532cbd6",
	"HEFT-min-timed/cholesky@20+4":      "d3acd16a43be183d8ae2937dadf435d8a440443be7aea664629280aa6b790d11",
	"HEFT-min-timed/qr@20+4":            "a742dc33e5a12f5338008932f626c69fe90f28e2b7e7ebf135e8b62533999abb",
	"HEFT-min-timed/lu@20+4":            "80efd33dfb61b3f0c46098b6e72783cef04ad1997907a34e9be0a5f2fa24a734",
	"HEFT-min-timed/qr@6+0":             "2bd111c0f2c11631da41581a1a6158732943fbaacf3303d31798c3d151a2ce90",
	"HEFT-min-timed/lu@0+3":             "8c88ea7f97cf10b17030717048d69e227159de2b3d9bb4970f1f56c0d085f441",
	"AffinityIndependent/cholesky@20+4": "e26dcd5e6c1a12ed1ec81c701bc72fd98e2a767907b5470bc7d01171c7703123",
	"AffinityIndependent/qr@20+4":       "9ef1ffa49e1f1d431f89c6748deca4f9b8ec0d5cbf2bf773a1e9a8353c45bac3",
	"AffinityIndependent/lu@20+4":       "8f05daa2cef56accf824090c6add4fa0c58a24c48351056b45b3a43d37df7bcb",
	"AffinityIndependent/qr@6+0":        "94f9bfab5f36023a77a4c2317c6957f4e1381909fad5e82cf846d1cf907e4f58",
	"AffinityIndependent/lu@0+3":        "6313f7639dfd0f0b51d410d51a1d3548b74ce6f82c6ea9217426665b66c033ec",
}

// TestKernelLoopsGolden pins every sched entry point driven by the
// kernel event loop, byte for byte.
func TestKernelLoopsGolden(t *testing.T) {
	for _, e := range loopEntries {
		for _, c := range loopCases {
			name := e.name + "/" + c.String()
			g, err := workloads.Build(c.fact, e.n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, c.pl); err != nil {
				t.Fatal(err)
			}
			in, err := workloads.IndependentTasks(c.fact, e.n)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.run(g, in, c.pl)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256([]byte(s.CSV()))
			if got := hex.EncodeToString(sum[:]); got != loopGolden[name] {
				t.Errorf("%q: %q,", name, got)
			}
		}
	}
}
