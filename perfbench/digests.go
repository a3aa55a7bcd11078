package main

import (
	"fmt"
	"hash/fnv"
)

// expectedDigests records, per workload and run length, the digest of
// the run's results at the default seed, as computed at the commit the
// benchmark was defined on: every raw sweep value's Float64bits, or every
// served plan's bytes in request order. A run at the default seed that
// prints another digest has changed a result, and is marked incorrect.
var expectedDigests = map[string]string{
	"exact-small/25s":     "15974c801aa4c0d9",
	"heuristic-large/25s": "28d65c83ee6f2be7",
	"serve-mixed/25s":     "cc932377c3690e4b",
}

func digestKey(workload string, seconds int) string {
	return fmt.Sprintf("%s/%ds", workload, seconds)
}

// checkDigest prints the run's result digest and, at the default seed,
// compares it with the recorded one; a mismatch is one failure.
func checkDigest(out *outcome, cfg config, digest uint64) {
	got := fmt.Sprintf("%016x", digest)
	fmt.Printf("digest %s %s\n", cfg.workload, got)
	if cfg.seed != defaultSeed {
		return
	}
	if want, ok := expectedDigests[digestKey(cfg.workload, cfg.seconds)]; ok && want != got {
		out.failed++
		out.fail("digest %s differs from the one recorded for seed %d: %s", got, defaultSeed, want)
	}
}

// plansDigest hashes the plan bytes of every correctly answered request,
// in request order.
func plansDigest(checked []servedOut) uint64 {
	h := fnv.New64a()
	for _, c := range checked {
		if c.ok {
			h.Write(c.resp.Plan)
		}
	}
	return h.Sum64()
}
