package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"wrsn/internal/model.(*IncrementalEvaluator).tinyDijkstra": "wrsn/internal/model",
		"wrsn/internal/engine.Run.func1":                           "wrsn/internal/engine",
		"net/http.(*conn).serve":                                   "net/http",
		"encoding/json.(*decodeState).object":                      "encoding/json",
		"runtime.mallocgc":                                         "runtime",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPackageSharesUsesFlatSamples(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     600ms 60.00% 60.00%      700ms 70.00%  wrsn/internal/model.(*IncrementalEvaluator).tinyDijkstra
     250ms 25.00% 85.00%      250ms 25.00%  wrsn/internal/model.totalCost
     150ms 15.00%   100%     1000ms   100%  runtime.mallocgc
       0ms     0%   100%      900ms 90.00%  wrsn/internal/solver.OptimalCtx
`)
	shares, err := packageShares(top)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shares["wrsn/internal/model"]-0.85) > 1e-12 || math.Abs(shares["runtime"]-0.15) > 1e-12 || shares["wrsn/internal/solver"] != 0 {
		t.Fatalf("shares = %v; want model 0.85, runtime 0.15, solver 0 (cumulative time is not self time)", shares)
	}
	if _, err := packageShares([]byte("no table here")); err == nil {
		t.Fatal("accepted output without a pprof table")
	}
}

// BENCHMARK.json and the program must name the same metrics with the
// same units: a traced run reports every per_layer metric and an
// untraced run every end_to_end metric.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %q (%s): program reports unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
		if len(listed) != len(units) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(listed), kind, len(units))
		}
	}
	check("end_to_end", b.EndToEnd, e2eUnits)
	check("per_layer", b.PerLayer, layerUnits)
}
