package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// runSelfcheck runs the full set (every workload, both trace modes) twice
// on this build at one seed and prints a pass/fail table: each end-to-end
// metric's two values must agree within its bound, and each exact-count
// layer metric must be identical. It returns the process exit code.
//
// A set of end-to-end runs comes first and is thrown away. This box
// throttles a CPU that has been busy for about a minute (README, "how the
// timed numbers are made steady"): runs made back to back agree with each
// other, the first ones after a pause read up to 30% faster.
func runSelfcheck(seed int64, d time.Duration) int {
	printEnv(seed)
	var sets [3]map[string]*resultLine // "workload/trace" -> result; sets[0] is the discarded one
	for i := range sets {
		sets[i] = map[string]*resultLine{}
		for wi := range workloads {
			w := &workloads[wi]
			for tr := 0; tr <= 1 && (i > 0 || tr == 0); tr++ {
				res, err := runOne(w, seed, d, tr, "")
				if err != nil {
					fmt.Fprintf(os.Stderr, "set %d %s trace=%d: %v\n", i, w.name, tr, err)
					return 1
				}
				sets[i][fmt.Sprintf("%s/%d", w.name, tr)] = res
			}
		}
	}

	ok := true
	fmt.Printf("%-14s %-36s %14s %14s %8s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	row := func(w, name string, a, b float64, bound float64, pass, judged bool) {
		verdict := "pass"
		switch {
		case !judged:
			verdict = "shown"
		case !pass:
			verdict, ok = "FAIL", false
		}
		limit := "exact"
		if bound > 0 {
			limit = fmt.Sprintf("%.0f%%", 100*bound)
		}
		fmt.Printf("%-14s %-36s %14.4f %14.4f %7.2f%% %7s  %s\n", w, name, a, b, 100*relDiff(a, b), limit, verdict)
	}
	for wi := range workloads {
		w := workloads[wi].name
		a, b := sets[1][w+"/0"], sets[2][w+"/0"]
		for _, def := range endToEnd {
			va, vb := a.Metrics[def.name].Value, b.Metrics[def.name].Value
			// setup_s is shown, not judged: it is a 30 ms CPU-bound interval,
			// two single runs of it have differed by 35% on this box, and the
			// driver too exempts its spread and compares medians of ten.
			row(w, def.name, va, vb, def.bound, math.Abs(relDiff(va, vb)) <= def.bound, def.name != "setup_s")
		}
		ta, tb := sets[1][w+"/1"], sets[2][w+"/1"]
		for _, name := range exactCounts {
			va, vb := ta.Metrics[name].Value, tb.Metrics[name].Value
			row(w, name, va, vb, 0, va == vb, true)
		}
		for _, res := range []*resultLine{a, b, ta, tb} {
			if !res.Correct {
				fmt.Printf("%-14s failed %d of %d requests\n", w, res.Failed, res.Attempted)
				ok = false
			}
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAIL")
		return 1
	}
	fmt.Println("selfcheck: pass")
	return 0
}

// relDiff is (b-a)/a, or 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / a
}
