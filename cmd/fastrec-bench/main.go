// Command fastrec-bench regenerates Table 1 of Sullivan & Olson (ICDE
// 1992): elapsed time to build indexes of 10,000 / 20,000 / 40,000
// four-byte keys inserted in ascending order (the worst case for split
// performance), and to perform 8,000 uniformly distributed random lookups
// against each, for the normal, page-reorganization, and shadow B-link
// trees. Each cell is the mean of -reps repetitions, with the normalized
// value (normal = 1.000) in parentheses, exactly as the paper reports.
//
// Only time spent in the index access method is measured, as in the paper:
// the harness times the Insert/Lookup calls themselves; transaction commit
// cost is excluded.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/obs"
	"repro/internal/storage"
)

var (
	sizes   = flag.String("sizes", "10000,20000,40000", "comma-separated index sizes in keys")
	lookups = flag.Int("lookups", 8000, "random lookups per index")
	reps    = flag.Int("reps", 3, "repetitions per cell (paper used 10)")
	op      = flag.String("op", "both", "insert, lookup, or both")
	seed    = flag.Int64("seed", 1992, "lookup key RNG seed")
	hybrid  = flag.Bool("hybrid", false, "include the hybrid variant (paper §1 suggestion)")
	ioLat   = flag.Duration("iolat", 0, "simulated per-page device latency (e.g. 100us); reproduces the paper's disk-bound regime")
	pool    = flag.Int("pool", 0, "buffer pool frames (0 = default; use a small pool with -iolat)")
	verbose = flag.Bool("v", false, "print buffer-pool hit/miss, partition, and fault-handling stats")
	obsOn   = flag.Bool("obs", false, "attach the recovery-event recorder to every tree (with -v: print its counters)")
	obsHTTP = flag.String("obs-http", "", "serve the recorder as expvar metrics on this address (implies -obs), e.g. :8080")
)

// benchRec is the shared recorder; nil unless -obs (or -obs-http) is given,
// so the default benchmark pays only the recorder's nil-check fast path.
var benchRec *obs.Recorder

func main() {
	flag.Parse()
	var ns []int
	for _, f := range splitComma(*sizes) {
		var n int
		if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", f)
			os.Exit(2)
		}
		ns = append(ns, n)
	}
	switch *op {
	case "insert", "lookup", "both":
	default:
		fmt.Fprintf(os.Stderr, "bad -op %q (want insert, lookup, or both)\n", *op)
		os.Exit(2)
	}
	if *obsHTTP != "" {
		*obsOn = true
	}
	if *obsOn {
		benchRec = obs.New(obs.DefaultRingCap)
	}
	if *obsHTTP != "" {
		benchRec.Publish("fastrec")
		go func() {
			if err := http.ListenAndServe(*obsHTTP, nil); err != nil {
				fmt.Fprintf(os.Stderr, "obs-http: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "obs: serving expvar metrics at http://%s/debug/vars\n", *obsHTTP)
	}

	variants := []btree.Variant{btree.Normal, btree.Reorg, btree.Shadow}
	if *hybrid {
		variants = append(variants, btree.Hybrid)
	}

	insertT := make(map[btree.Variant][]time.Duration)
	lookupT := make(map[btree.Variant][]time.Duration)
	for _, v := range variants {
		for _, n := range ns {
			var ins, look []time.Duration
			for r := 0; r < *reps; r++ {
				runtime.GC() // keep allocator noise out of the cells
				i, l := runCell(v, n, *lookups, *seed+int64(r))
				ins = append(ins, i)
				look = append(look, l)
			}
			insertT[v] = append(insertT[v], median(ins))
			lookupT[v] = append(lookupT[v], median(look))
		}
	}

	fmt.Printf("Table 1: Insert/Lookup Performance Comparison (reps=%d)\n\n", *reps)
	fmt.Printf("%-12s", "Operation")
	for _, n := range ns {
		fmt.Printf(" %14d", n)
	}
	fmt.Println()

	if *op == "insert" || *op == "both" {
		fmt.Printf("\nInserts (ascending 4-byte keys)\n")
		printRows(variants, ns, insertT)
	}
	if *op == "lookup" || *op == "both" {
		fmt.Printf("\n%d Lookups (uniform random)\n", *lookups)
		printRows(variants, ns, lookupT)
	}
	if *verbose && benchRec != nil {
		printObsSnapshot(os.Stderr)
	}
}

// runCell builds one index of n ascending 4-byte keys and runs the random
// lookups, returning the two elapsed times (access-method time only).
func runCell(v btree.Variant, n, nLookups int, seed int64) (insert, lookup time.Duration) {
	disk := storage.NewMemDisk()
	if *ioLat > 0 {
		disk.SetLatency(*ioLat, *ioLat)
	}
	tr, err := btree.Open(disk, v, btree.Options{PoolSize: *pool, Obs: benchRec})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	key := make([]byte, 4)
	value := []byte("v00000000") // a TID-sized payload

	start := time.Now()
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(key, uint32(i))
		if err := tr.Insert(key, value); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	insert = time.Since(start)

	// Commit cost excluded, as in the paper; sync once so lookups see a
	// quiescent tree.
	if err := tr.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	rng := rand.New(rand.NewSource(seed))
	start = time.Now()
	for i := 0; i < nLookups; i++ {
		binary.BigEndian.PutUint32(key, uint32(rng.Intn(n)))
		if _, err := tr.Lookup(key); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	lookup = time.Since(start)
	if *verbose {
		printPoolStats(os.Stderr, fmt.Sprintf("%s n=%d", label(v), n), tr)
	}
	return insert, lookup
}

func printRows(variants []btree.Variant, ns []int, times map[btree.Variant][]time.Duration) {
	base := times[btree.Normal]
	for _, v := range variants {
		fmt.Printf("%-12s", label(v))
		for i := range ns {
			d := times[v][i]
			fmt.Printf(" %9.3fms", float64(d.Microseconds())/1000)
		}
		fmt.Println()
		fmt.Printf("%-12s", "")
		for i := range ns {
			ratio := float64(times[v][i]) / float64(base[i])
			fmt.Printf(" %11s", fmt.Sprintf("(%.3f)", ratio))
		}
		fmt.Println()
	}
}

func label(v btree.Variant) string {
	switch v {
	case btree.Normal:
		return "Normal"
	case btree.Reorg:
		return "Page Reorg"
	case btree.Shadow:
		return "Shadow"
	case btree.Hybrid:
		return "Hybrid"
	}
	return v.String()
}

// median reports the middle sample: robust against GC pauses and scheduler
// noise, unlike the mean of a handful of runs.
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// printPoolStats renders the striped buffer pool's counters (-v). Its io:
// line reads the shared recorder, so it is a running total over every cell
// so far, and zero without -obs.
func printPoolStats(w io.Writer, name string, tr *btree.Tree) {
	p := tr.Pool()
	hits, misses := p.Stats()
	fmt.Fprintf(w, "%s pool: %d hits, %d misses (%.1f%% hit rate), %d partitions\n",
		name, hits, misses, 100*float64(hits)/float64(hits+misses), p.Partitions())
	for _, st := range p.PartitionStats() {
		fmt.Fprintf(w, "  partition %2d: %4d frames (quota %4d) %10d hits %8d misses\n",
			st.Partition, st.Frames, st.Quota, st.Hits, st.Misses)
	}
	fmt.Fprintf(w, "  io: %d retries, %d checksum failures, %d torn pages repaired\n",
		benchRec.Get(obs.IORetry), benchRec.Get(obs.ZeroRoute), benchRec.Get(obs.TornRepair))
}

// printObsSnapshot renders the shared recorder's nonzero counters and
// timers (-obs -v).
func printObsSnapshot(w io.Writer) {
	snap := benchRec.Snapshot()
	fmt.Fprintln(w, "obs counters:")
	if len(snap.Counters) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-20s %d\n", name, snap.Counters[name])
	}
	tnames := make([]string, 0, len(snap.Timers))
	for name := range snap.Timers {
		tnames = append(tnames, name)
	}
	sort.Strings(tnames)
	for _, name := range tnames {
		ts := snap.Timers[name]
		if ts.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-20s %d samples, mean %.1fµs\n",
			name, ts.Count, float64(ts.TotalNs)/float64(ts.Count)/1e3)
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
