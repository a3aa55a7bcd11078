package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// layerUnits is every per-layer metric a traced run reports, with its
// unit; BENCHMARK.json's per_layer list must name the same set (a test
// checks). A workload that does not exercise a layer reports 0 for it.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"bench.trace_overhead_frac": "fraction",
		"bench.lag_p99_ms":          "ms",
		"bench.plan_tail_ms":        "ms",

		"engine.busy_s":    "s",
		"engine.self_s":    "s",
		"engine.idle_frac": "fraction",
		"engine.gen_s":     "s",
		"engine.tail_s":    "s",

		"model.cost_us":          "us",
		"model.probe_us":         "us",
		"model.bounded_probe_us": "us",
		"model.cached_cost_us":   "us",
		"model.commit_us":        "us",
		"model.repair_frac":      "fraction",
		"model.fallback_frac":    "fraction",
		"model.prune_frac":       "fraction",
		"model.cache_hit_frac":   "fraction",
		"model.evaluate_us":      "us",

		"graph.dag_us":      "us",
		"graph.reweight_us": "us",
		"graph.settled":     "count",

		"routing.trim_us":    "us",
		"routing.merge_us":   "us",
		"deploy.allocate_us": "us",

		"placement.cost_us":  "us",
		"placement.probe_us": "us",

		"daemon.hit_p50_ms":       "ms",
		"daemon.hit_tail_ms":      "ms",
		"daemon.miss_p50_ms":      "ms",
		"daemon.miss_tail_ms":     "ms",
		"daemon.server_p50_ms":    "ms",
		"daemon.transport_p50_ms": "ms",
		"daemon.self_s":           "s",
		"daemon.hit_rate":         "fraction",
		"daemon.decode_us":        "us",
		"daemon.canonical_key_us": "us",

		"runtime.gc_cpu_frac": "fraction",
		"runtime.alloc_mb":    "MB",
	}
	for _, s := range allSolvers {
		u["solver."+s+".calls"] = "count"
		u["solver."+s+".busy_s"] = "s"
		u["solver."+s+".evals"] = "count"
		u["solver."+s+".us_per_eval"] = "us"
	}
	for name := range profPackages {
		u["prof."+name+".share"] = "fraction"
	}
	return u
}()

// e2eUnits is every end-to-end metric, with its unit.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"cells_per_s":  "1/s",
	"plan_p50_ms":  "ms",
	"slo_frac":     "fraction",
	"peak_heap_mb": "MB",
}

// fillMissing reports 0 for every per-layer metric the workload did not
// exercise, so every traced run emits the same names.
func fillMissing(into map[string]metric) {
	for name, unit := range layerUnits {
		if _, ok := into[name]; !ok {
			into[name] = metric{0, unit}
		}
	}
}

// solverStat totals one solver's cells.
type solverStat struct {
	calls int64
	busy  time.Duration
	evals int64
}

func solverMetrics(into map[string]metric, stats map[string]*solverStat) {
	for name, s := range stats {
		into["solver."+name+".calls"] = metric{float64(s.calls), "count"}
		into["solver."+name+".busy_s"] = metric{s.busy.Seconds(), "s"}
		into["solver."+name+".evals"] = metric{float64(s.evals), "count"}
		per := 0.0
		if s.evals > 0 {
			per = float64(s.busy) / float64(time.Microsecond) / float64(s.evals)
		}
		into["solver."+name+".us_per_eval"] = metric{per, "us"}
	}
}

// traceFile names a traced run's output file; traced runs write their
// spans and profile under .bench_build/trace in the working directory.
func traceFile(cfg config, suffix string) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.%s", cfg.workload, cfg.seed, suffix))
}

// profPackages maps each prof.<name>.share metric to the Go package
// whose self (flat) CPU samples it counts.
var profPackages = map[string]string{
	"model":         "wrsn/internal/model",
	"graph":         "wrsn/internal/graph",
	"solver":        "wrsn/internal/solver",
	"routing":       "wrsn/internal/routing",
	"deploy":        "wrsn/internal/deploy",
	"engine":        "wrsn/internal/engine",
	"daemon":        "wrsn/internal/daemon",
	"placement":     "wrsn/internal/placement",
	"net_http":      "net/http",
	"encoding_json": "encoding/json",
	"runtime":       "runtime",
}

// profileDuring runs fn under the CPU profiler, then summarises the
// profile with `go tool pprof` into each package's share of CPU samples.
func profileDuring(cfg config, fn func()) (map[string]metric, error) {
	path := traceFile(cfg, "cpu.pprof")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w", err)
	}
	shares, err := packageShares(top)
	if err != nil {
		return nil, err
	}
	if tags, err := exec.Command("go", "tool", "pprof", "-tags", path).Output(); err == nil {
		fmt.Printf("pprof labels:\n%s", tags)
	}
	out := map[string]metric{}
	for name, pkg := range profPackages {
		out["prof."+name+".share"] = metric{shares[pkg], "fraction"}
	}
	return out, nil
}

// packageShares parses `go tool pprof -top -unit=ms` output into each
// package's share of the flat (self) samples.
func packageShares(top []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 || !strings.HasSuffix(fields[0], "ms") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		flat[funcPackage(strings.Join(fields[5:], " "))] += v
		total += v
	}
	if !inTable {
		return nil, fmt.Errorf("no table in pprof output:\n%s", top)
	}
	shares := map[string]float64{}
	for pkg, v := range flat {
		if total > 0 {
			shares[pkg] = v / total
		}
	}
	return shares, nil
}

// funcPackage returns the import path of a pprof function name such as
// "wrsn/internal/model.(*IncrementalEvaluator).Cost".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
