package main

import "math"

// latencyHist pools latency samples across the passes of a run in
// log-spaced buckets 0.5% wide, so its percentiles are exact to 0.5% and
// its memory does not grow with the number of samples (a growing sample
// slice would show up in the peak-heap metric).
type latencyHist struct {
	counts []int64
	n      int64
}

const (
	histMinUs  = 0.01  // lower edge of the first bucket, µs
	histRatio  = 1.005 // upper/lower edge of every bucket
	histBucket = 4200  // reaches past 10 s
)

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]int64, histBucket)} }

func (h *latencyHist) add(us float64) {
	i := 0
	if us > histMinUs {
		i = min(int(math.Log(us/histMinUs)/math.Log(histRatio)), histBucket-1)
	}
	h.counts[i]++
	h.n++
}

// percentile returns the nearest-rank p-th percentile sample, placed
// inside its bucket by its rank among the bucket's samples on the
// assumption that they are spread evenly over the bucket on a log scale
// (0 when empty). Returning the bucket's middle instead would make
// medians of steady workloads repeat the same few values from run to run.
func (h *latencyHist) percentile(p float64) float64 {
	rank := max(int64(math.Ceil(p/100*float64(h.n))), 1)
	var seen int64
	for i, c := range h.counts {
		if c > 0 && seen+c >= rank {
			within := (float64(rank-seen) - 0.5) / float64(c)
			return histMinUs * math.Pow(histRatio, float64(i)+within)
		}
		seen += c
	}
	return 0
}
