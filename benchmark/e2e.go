package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
)

// metricDef declares one metric: its name, unit and direction, and for an
// end-to-end metric the bound BENCHMARK.json carries.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is the set a user of the server would see; every one is
// reported on every workload with --trace 0. failed_frac, the twelfth in
// ISSUE.md, is the result line's failed/attempted (and a per-layer metric):
// it is 0 on a correct build, and a bounded metric may never be 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"get_p95_us", "us", "lower", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"put_p95_us", "us", "lower", 0.25},
	{"mput_p50_us", "us", "lower", 0.25},
	{"scan_p50_us", "us", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.05},
	{"restart_ms", "ms", "lower", 0.25},
	{"first_pass_s", "s", "lower", 0.25},
}

// steadyNewBase separates the new keys of the steady phase from the
// warm-up's, whose count depends on how far the warm-up got.
const steadyNewBase = 50000

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a percentile or median (0 = a single
	// measurement or a count).
	n int
}

// e2eRun is everything the untraced run measured.
type e2eRun struct {
	o       *oracle
	setups  []float64 // seconds, one per set-up
	others  []*oracle // the oracles of the set-ups the run did not keep
	steadyD time.Duration
	steady  *phase
	cycles  []*cycle
	// Sampled after the last set-up.
	deviceBytes int64
	liveBytes   int64
	// Commit-path counters over every generation of the run.
	commitTxns, commitBatches, syncSkipped uint64
}

// A run times a batch of set-ups before the steady phase, after it, and
// after every crash cycle, and reports the quickest. A set-up is CPU-bound,
// and this box has spells, seconds to tens of seconds long, in which
// everything CPU-bound costs about half as much again (the set-ups of one
// run read 37-45 ms in one batch and 60-67 ms in the next); a neighbour only
// ever adds time, and batches spread over the run see more than one spell.
// batchBudget ends a batch early, after at least two set-ups (the first
// of a batch runs on cold caches), so that a large workload is not set up
// dozens of times.
const batchBudget = 200 * time.Millisecond

// timeSetups sets the workload up n times (fewer, but at least two, once
// batchBudget is spent), appends each set-up's seconds to run.setups and
// returns the last instance with its oracle; the earlier ones are stopped.
func (run *e2eRun) timeSetups(w *workload, n int) (*instance, *oracle, error) {
	var (
		in *instance
		o  *oracle
	)
	for batch, done := time.Now(), 0; done < n && (done < 2 || time.Since(batch) < batchBudget); done++ {
		if in != nil {
			in.stop()
			run.others = append(run.others, o)
		}
		o = newOracle(w.keys)
		// Every set-up starts from a collected heap, so that where the
		// collector's cycles fall does not differ from one to the next.
		runtime.GC()
		began := time.Now()
		var err error
		if in, err = setup(w, o, flushEvery); err != nil {
			return nil, nil, err
		}
		run.setups = append(run.setups, time.Since(began).Seconds())
	}
	return in, o, nil
}

// runE2E sets the workload up nSetups times (see timeSetups), keeps the
// last, runs the steady phase for steadyShare of d, then nCycles crash
// cycles (0 = as many as the workload budgets for d). With nSetups above
// one it sets up that many times again after the steady phase and after
// every cycle, on stores it throws away.
func runE2E(w *workload, seed int64, d time.Duration, nSetups, nCycles int, logf func(string, ...any)) (*e2eRun, error) {
	run := &e2eRun{}
	in, o, err := run.timeSetups(w, nSetups)
	if err != nil {
		return nil, err
	}
	run.o = o
	moreSetups := func() error {
		if nSetups < 2 {
			return nil
		}
		spare, so, err := run.timeSetups(w, nSetups)
		if err == nil {
			spare.stop()
			run.others = append(run.others, so)
		}
		return err
	}
	defer func() { in.stop() }()

	// space_amp is sampled here, on the loaded store: the steady phase is
	// time-bound, so how many versions it leaves behind depends on how fast
	// the build is, and a faster build must not read as a fatter one.
	for _, disk := range core.MemoryDisks(in.store) {
		run.deviceBytes += int64(disk.NumPages()) * page.Size
	}
	run.liveBytes = run.o.liveBytes()

	commits := func(in *instance) {
		run.commitTxns += in.rec.Get(obs.CommitTxn)
		run.commitBatches += in.rec.Get(obs.CommitBatch)
		run.syncSkipped += in.rec.Get(obs.CommitSyncSkip)
	}
	if w.steadyShare > 0 {
		// Let the pools reach the mix's working set before timing.
		if _, err := drive(in, w, run.o, w.mix, seed+1, w.steadyClients, d/10, 0, w.keys); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		run.steadyD = time.Duration(float64(d) * w.steadyShare)
		var err error
		if run.steady, err = drive(in, w, run.o, w.mix, seed, w.steadyClients, run.steadyD, 0, w.keys+steadyNewBase); err != nil {
			return nil, fmt.Errorf("steady phase: %w", err)
		}
		logf("steady: %d requests in %.2fs", run.steady.ops, run.steady.wall.Seconds())
		if err := moreSetups(); err != nil {
			return nil, err
		}
	}
	if nCycles == 0 {
		nCycles = w.cycles(d)
	}
	for n := 0; n < nCycles; n++ {
		next, cy, err := crashCycle(in, w, run.o, seed, n)
		if next != in {
			commits(in)
		}
		in = next
		if err != nil {
			return nil, fmt.Errorf("crash cycle %d: %w", n, err)
		}
		run.cycles = append(run.cycles, cy)
		logf("cycle %d: burst %.0f/s, restart %.1fms, first pass %.3fs, %d repairs",
			n, float64(cy.burst.ops)/cy.burst.wall.Seconds(), cy.restart.Seconds()*1e3, cy.firstPass.Seconds(), cy.repairs)
		if err := moreSetups(); err != nil {
			return nil, err
		}
	}
	commits(in)
	for _, other := range run.others {
		run.o.absorb(other)
	}
	logf("set-up x%d: quickest %.3fs", len(run.setups), slices.Min(run.setups))
	return run, nil
}

// latencies returns verb v's samples, in completion order, from the steady
// phase when the steady mix contains the verb, otherwise from the crash
// cycles (bursts for writes, the timed first passes for reads).
func (r *e2eRun) latencies(v verb) []sample {
	if r.steady != nil && len(r.steady.lat[v]) > 0 {
		return r.steady.lat[v]
	}
	var out []sample
	for _, cy := range r.cycles {
		out = append(out, cy.burst.lat[v]...)
		out = append(out, cy.pass[v]...)
	}
	return out
}

// opsPerSec is the completion rate of the best of the steady phase's equal
// time slices (see bestChunks for why the best), or of the best cycle's
// burst for a workload with no steady phase.
func (r *e2eRun) opsPerSec() (float64, int) {
	if r.steady == nil {
		best := 0.0
		for _, cy := range r.cycles {
			if rate := float64(cy.burst.ops) / cy.burst.wall.Seconds(); rate > best {
				best = rate
			}
		}
		return best, len(r.cycles)
	}
	k := bestChunks(r.steady.ops, 10000)
	per := int64(r.steadyD) / int64(k)
	counts := make([]int, k)
	for v := range r.steady.lat {
		for _, s := range r.steady.lat[v] {
			if i := int(s.at / per); i < k {
				counts[i]++
			}
		}
	}
	best := 0
	for _, n := range counts {
		if n > best {
			best = n
		}
	}
	return float64(best) / time.Duration(per).Seconds(), r.steady.ops
}

func (r *e2eRun) endToEnd() map[string]value {
	m := map[string]value{}
	pct := func(name string, v verb, p float64) {
		ss := r.latencies(v)
		m[name] = value{Value: bestPercentileUs(ss, p), Unit: "us", n: len(ss)}
	}
	m["setup_s"] = value{Value: slices.Min(r.setups), Unit: "s", n: len(r.setups)}
	rate, n := r.opsPerSec()
	m["ops_per_s"] = value{Value: rate, Unit: "1/s", n: n}
	pct("get_p50_us", vGet, 0.50)
	pct("get_p95_us", vGet, 0.95)
	pct("put_p50_us", vPut, 0.50)
	pct("put_p95_us", vPut, 0.95)
	pct("mput_p50_us", vMput, 0.50)
	pct("scan_p50_us", vScan, 0.50)
	m["space_amp"] = value{Value: ratio(float64(r.deviceBytes), float64(r.liveBytes)), Unit: "ratio"}
	// The mean of the quicker half of the cycles: a neighbour on the box
	// only ever adds time, and the number of cycles is fixed, so that the
	// store growing a little every cycle weighs the same in every run.
	restarts, passes := make([]float64, len(r.cycles)), make([]float64, len(r.cycles))
	for i, cy := range r.cycles {
		restarts[i], passes[i] = cy.restart.Seconds()*1e3, cy.firstPass.Seconds()
	}
	m["restart_ms"] = value{Value: lowMean(restarts), Unit: "ms", n: len(r.cycles)}
	m["first_pass_s"] = value{Value: lowMean(passes), Unit: "s", n: len(r.cycles)}
	return m
}
