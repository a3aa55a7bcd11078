package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail estimate resting on fewer is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailRank returns the 1-based nearest rank of the highest percentile
// of n samples that keeps at least minBeyond samples beyond it, capped
// at the 99th percentile. ok is false when n is too small for any
// percentile to qualify.
func tailRank(n int) (rank int, ok bool) {
	rank = n - minBeyond
	if p99 := (99*n + 99) / 100; p99 < rank {
		rank = p99
	}
	return rank, rank >= 1
}

// summary is a latency distribution reported by the percentile rule: the
// median, the tail percentile and the sample count behind both.
type summary struct {
	N      int
	P50    time.Duration
	Tail   time.Duration
	TailPc float64 // the percentile Tail stands for, 0 when n is too small
}

// summarize applies the percentile rule to samples (which it sorts).
// With too few samples for any tail percentile, Tail is the maximum and
// TailPc is 0.
func summarize(samples []time.Duration) summary {
	s := summary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	s.P50 = samples[(len(samples)+1)/2-1]
	if rank, ok := tailRank(len(samples)); ok {
		s.Tail = samples[rank-1]
		s.TailPc = 100 * float64(rank) / float64(len(samples))
	} else {
		s.Tail = samples[len(samples)-1]
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat returns the median of xs (which it sorts), 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}
