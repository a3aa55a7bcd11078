// Command perfbench is the repository benchmark. It runs one named
// workload against the repo's own packages, checks every output, and
// prints the workload's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 91, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 runs the
// workload a second time with spans, pprof labels and a CPU profile,
// adds a kernel pass over the layers' public functions, and reports the
// per-layer metrics instead. BENCHMARK.json at the repository root lists
// both sets; perfbench/README.md says what each metric measures and which
// end-to-end metric each layer metric should move.
//
// Run it through perfbench/run.sh from the repository root, which builds
// it first.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"wrsn/internal/model"
)

// defaultSeed is the seed whose digests are recorded in digests.go.
const defaultSeed = 1

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// inject adds a fixed latency to every sweep cell (engine chaos) or
	// every daemon solve (daemon chaos): the sensitivity check.
	inject  time.Duration
	workers int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: its counts, the correctness
// problems it found, and both metric sets.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e, layer        map[string]metric
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"exact-small":     runExactSmall,
	"heuristic-large": runHeuristicLarge,
	"serve-mixed":     runServeMixed,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg      config
		traceInt int
		injectMS int
	)
	flags.StringVar(&cfg.workload, "workload", "", "workload to run: exact-small, heuristic-large or serve-mixed")
	flags.Int64Var(&cfg.seed, "seed", defaultSeed, "seed all inputs are generated from")
	flags.IntVar(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	flags.IntVar(&traceInt, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flags.IntVar(&injectMS, "inject-ms", 0, "sensitivity check: delay every sweep cell or daemon solve by this many ms")
	if err := flags.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have exact-small, heuristic-large, serve-mixed)", cfg.workload)
	}
	if cfg.seconds < 1 || traceInt < 0 || traceInt > 1 || injectMS < 0 {
		return fmt.Errorf("need --seconds >= 1, --trace 0 or 1 and --inject-ms >= 0")
	}
	cfg.trace = traceInt == 1
	cfg.inject = time.Duration(injectMS) * time.Millisecond
	cfg.workers = runtime.NumCPU()

	env := map[string]interface{}{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"inject_ms":     injectMS,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"workers":       cfg.workers,
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"features":      model.EvaluatorFeatures(),
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)

	out, err := w(cfg)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Println("INCORRECT:", p)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	declared := e2eUnits
	if cfg.trace {
		res.Metrics, declared = out.layer, layerUnits
	}
	for name, unit := range declared {
		if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
			return fmt.Errorf("metric %s (%s) not reported as declared: %+v", name, unit, got)
		}
	}
	if len(res.Metrics) != len(declared) {
		return fmt.Errorf("reported %d metrics, declared %d", len(res.Metrics), len(declared))
	}
	fmt.Printf("fail_frac %.6f (%d of %d)\n", float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod under root,
// excluding the benchmark itself: it identifies the code measured when
// the checkout carries no VCS metadata.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && (path == filepath.Join(root, "perfbench") || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == filepath.Join(root, "go.mod")) {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rtSample is a runtime/metrics snapshot for per-phase deltas.
type rtSample struct {
	gcCPU, totalCPU, idleCPU, allocBytes float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: v(0), totalCPU: v(1), idleCPU: v(2), allocBytes: v(3)}
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeMetrics reports GC's share of busy CPU and the bytes allocated
// between two snapshots.
func runtimeMetrics(a, b rtSample, into map[string]metric) {
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	frac := 0.0
	if busy > 0 {
		frac = (b.gcCPU - a.gcCPU) / busy
	}
	into["runtime.gc_cpu_frac"] = metric{frac, "fraction"}
	into["runtime.alloc_mb"] = metric{(b.allocBytes - a.allocBytes) / 1e6, "MB"}
}

// heapSampler records the highest live heap seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

// startHeapSampler samples the live heap (the heap marked live by the
// last GC) every few milliseconds until stopPeak is called.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	sample := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopPeak stops the sampler and returns the peak in MB.
func (h *heapSampler) stopPeak() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}

// setupRuns is how many set-ups a run times: one before the timed phase
// and the rest after it. setup_s is their median, so it samples the
// machine's speed at several moments of the run rather than one.
const setupRuns = 5

// timeIt returns how long fn took.
func timeIt(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// withTimeout is the context every workload runs under: no run may
// outlive the harness's limit, whatever the code under test does.
func withTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 170*time.Second)
}
