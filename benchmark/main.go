// Command benchmark is the repository's one performance instrument: four
// workloads driven over real loopback TCP against an in-process
// internal/server, every reply checked against a model, eleven end-to-end
// metrics per workload, and a traced run whose ladder of rungs says which
// layer the time goes to. See README.md beside this file.
//
//	bash benchmark/run.sh                                # everything, as tables
//	bash benchmark/run.sh --workload read-hot --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh -selfcheck                     # two sets, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeed is the committed seed: the one -selfcheck and a bare run use.
const defaultSeed = 1992

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all, both trace modes, printed as tables)")
		seed      = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same requests")
		seconds   = flag.Int("seconds", 20, "measured seconds per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every metric against its bound")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds n] [--trace 0|1] [-trace-out file] [-selfcheck]")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second

	if *selfcheck {
		os.Exit(runSelfcheck(*seed, d))
	}
	if *name == "" {
		printEnv(*seed)
		failed := false
		for i := range workloads {
			for tr := 0; tr <= 1; tr++ {
				res, err := runOne(&workloads[i], *seed, d, tr, *traceOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", workloads[i].name, err)
					os.Exit(1)
				}
				printTable(&workloads[i], tr, res)
				failed = failed || !res.Correct
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	printEnv(*seed)
	res, err := runOne(w, *seed, d, *trace, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		os.Exit(1)
	}
	printTable(w, *trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload in one trace mode.
func runOne(w *workload, seed int64, d time.Duration, trace int, traceOut string) (*resultLine, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "  [%s trace=%d] %s\n", w.name, trace, fmt.Sprintf(format, args...))
	}
	var (
		metrics map[string]value
		o       *oracle
	)
	if trace == 0 {
		run, err := runE2E(w, seed, d, 3, 0, logf)
		if err != nil {
			return nil, err
		}
		metrics, o = run.endToEnd(), run.o
	} else {
		var err error
		if metrics, o, err = runLadder(w, seed, d, fullSizes, traceOut, logf); err != nil {
			return nil, err
		}
	}
	res := result(metrics, o)
	if !res.Correct {
		logf("FIRST FAILURE: %s", o.firstErr)
	}
	return res, nil
}

// result builds the result line from a run's metrics and its oracle's
// attempt and failure counts.
func result(metrics map[string]value, o *oracle) *resultLine {
	attempted, failed := o.totals()
	return &resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// printEnv prints the env block: what a number from this run depends on.
func printEnv(seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d clients=%d device=sim100(MemDisk,%v/page) flush=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed, clients, simLatency, flushEvery)
}

// printTable prints every metric of one run by name, with unit and sample
// count.
func printTable(w *workload, trace int, res *resultLine) {
	fmt.Printf("workload %s trace=%d: attempted=%d failed=%d\n", w.name, trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		if v.n > 0 {
			fmt.Printf("  %-36s %14.4f %-6s n=%d\n", n, v.Value, v.Unit, v.n)
		} else {
			fmt.Printf("  %-36s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
}
