// Command benchgate is the CI benchmark-regression gate. It runs the key
// scheduler benchmarks (or parses a pre-recorded run with -input),
// normalizes the results, and compares them against the checked-in
// baseline BENCH_baseline.json.
//
// Allocations per op are compared with a tight band — they are
// machine-independent, so any growth is a real regression. Nanoseconds
// per op get a wide band (default 35%) that absorbs runner noise while
// still catching algorithmic slowdowns.
//
// Usage:
//
//	benchgate                 # run the gated benchmarks, compare, exit 1 on regression
//	benchgate -update         # re-run and rewrite the baseline
//	benchgate -input out.txt  # gate a pre-recorded `go test -bench -benchmem` output
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// gatedBenchmarks is the -bench regexp for the gate: the scheduler fast
// paths, the area bound, HLP's allocation walk and its lp.Solve fallback,
// the DAG path on a narrow and a wide platform, the zoo's DAG policies and
// HeteroPrio's online arrivals on the shared event loop, schedule
// validation, the pool scaling bench, building the factorization graphs,
// and the observability hot paths (HDR record and span start/end).
const gatedBenchmarks = "^(BenchmarkBuildFactorizations|BenchmarkScheduleIndependent|BenchmarkScheduleIndependentZoo|BenchmarkScheduleIndependentScaling|BenchmarkAreaBound|BenchmarkHLPIndependent|BenchmarkHLPIndependentFallback|BenchmarkScheduleDAGCholesky|BenchmarkScheduleDAGWide|BenchmarkScheduleDAGZoo|BenchmarkScheduleOnline|BenchmarkScheduleValidate|BenchmarkHDRRecord|BenchmarkSpanStartEnd)$"

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		input        = flag.String("input", "", "gate this `go test -bench -benchmem` output instead of running the benchmarks")
		benchRe      = flag.String("bench", gatedBenchmarks, "benchmark selection regexp passed to go test")
		count        = flag.Int("count", 3, "benchmark repetitions; the minimum per benchmark is gated")
		benchtime    = flag.String("benchtime", "300ms", "per-benchmark time passed to go test")
		nsTol        = flag.Float64("tolerance", 0.35, "allowed ns/op regression, as a fraction of the baseline")
		allocTol     = flag.Float64("alloc-tolerance", 0.10, "allowed allocs/op regression, as a fraction of the baseline")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	)
	flag.Parse()

	got, err := collect(*input, *benchRe, *count, *benchtime)
	if err != nil {
		fatal(err)
	}

	if *update {
		b := Baseline{
			Note: "regenerate with: go run ./cmd/benchgate -update " +
				"(run on the CI runner class the gate executes on)",
			Benchmarks: got,
		}
		if err := writeBaseline(*baselinePath, b); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline %s updated with %d benchmarks\n", *baselinePath, len(got))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	summarize(os.Stdout, base, got)
	fails := compare(os.Stdout, base, got, *nsTol, *allocTol)
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok — %d benchmarks within tolerance (ns/op %.0f%%, allocs/op %.0f%%)\n",
		len(base.Benchmarks), 100**nsTol, 100**allocTol)
}

// collect produces the run results: parsed from input when given,
// otherwise by running the benchmarks in the current module.
func collect(input, benchRe string, count int, benchtime string) (map[string]Result, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchgate: close:", err)
			}
		}()
		return parseBench(f)
	}
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-count", strconv.Itoa(count), "-benchtime", benchtime, "."}
	fmt.Println("benchgate: go", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench failed: %w", err)
	}
	os.Stdout.Write(out) //hplint:allow errflow best-effort echo of the bench log, gating uses the parsed copy
	return parseBench(strings.NewReader(string(out)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
