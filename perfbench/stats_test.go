package main

import (
	"testing"
	"time"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		ok      bool
	}{
		{n: 2000, rank: 1980, ok: true}, // p99, 20 beyond
		{n: 1010, rank: 1000, ok: true}, // p99, exactly 10 beyond
		{n: 1000, rank: 990, ok: true},  // p99
		{n: 999, rank: 989, ok: true},   // just below p99
		{n: 84, rank: 74, ok: true},     // p88.1
		{n: 11, rank: 1, ok: true},
		{n: 10, ok: false},
		{n: 0, ok: false},
	} {
		rank, ok := tailRank(tc.n)
		if ok != tc.ok || (ok && rank != tc.rank) {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", tc.n, rank, ok, tc.rank, tc.ok)
		}
		if ok && tc.n-rank < minBeyond {
			t.Errorf("tailRank(%d) leaves %d samples beyond, want >= %d", tc.n, tc.n-rank, minBeyond)
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	var samples []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	s := summarize(samples)
	if s.N != 100 || s.P50 != 50*time.Millisecond || s.Tail != 90*time.Millisecond || s.TailPc != 90 {
		t.Fatalf("summarize(1..100ms) = %+v; want n=100 p50=50ms p90=90ms", s)
	}
	if small := summarize([]time.Duration{3, 1, 2}); small.TailPc != 0 || small.Tail != 3 || small.P50 != 2 {
		t.Fatalf("summarize of 3 samples = %+v; want no tail percentile, max as tail, median 2", small)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestCheckDigestFlagsAChangedResultAtTheDefaultSeed(t *testing.T) {
	expectedDigests["test-workload/1s"] = "0000000000000001"
	defer delete(expectedDigests, "test-workload/1s")
	cfg := config{workload: "test-workload", seed: defaultSeed, seconds: 1}
	for _, tc := range []struct {
		seed    int64
		seconds int
		digest  uint64
		flagged bool
	}{
		{seed: defaultSeed, seconds: 1, digest: 1, flagged: false},
		{seed: defaultSeed, seconds: 1, digest: 2, flagged: true},
		{seed: defaultSeed + 1, seconds: 1, digest: 2, flagged: false}, // no record for this seed
		{seed: defaultSeed, seconds: 2, digest: 2, flagged: false},     // nor for this length
	} {
		cfg.seed, cfg.seconds = tc.seed, tc.seconds
		out := &outcome{}
		checkDigest(out, cfg, tc.digest)
		if got := len(out.problems) > 0; got != tc.flagged {
			t.Errorf("seed %d, %ds, digest %x: flagged %v, want %v", tc.seed, tc.seconds, tc.digest, got, tc.flagged)
		}
	}
}
