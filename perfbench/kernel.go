package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wrsn/internal/daemon"
	"wrsn/internal/deploy"
	"wrsn/internal/graph"
	"wrsn/internal/model"
	"wrsn/internal/placement"
	"wrsn/internal/routing"
)

// kernelOps bounds how many calls one kernel times, and kernelBudget how
// long; each kernel reports the median call.
const (
	kernelOps    = 4000
	kernelBudget = 60 * time.Millisecond
)

// timeOps calls op repeatedly, timing each call, and returns the median
// in microseconds.
func timeOps(op func(i int) error) (float64, error) {
	var ds []time.Duration
	begin := time.Now()
	for i := 0; i < kernelOps && (i < 20 || time.Since(begin) < kernelBudget); i++ {
		t := time.Now()
		if err := op(i); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t))
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return float64(ds[len(ds)/2]) / float64(time.Microsecond), nil
}

// moveGen draws single-node transfer moves (one node from a post with
// more than one to another post) against a tracked deployment.
type moveGen struct {
	rng *rand.Rand
	m   []int
}

func (g *moveGen) next() []model.Move {
	n := len(g.m)
	for {
		from, to := g.rng.Intn(n), g.rng.Intn(n)
		if from != to && g.m[from] > 1 {
			return []model.Move{{Post: from, Delta: -1}, {Post: to, Delta: 1}}
		}
	}
}

func (g *moveGen) apply(moves []model.Move) {
	for _, mv := range moves {
		g.m[mv.Post] += mv.Delta
	}
}

// kernelPass times the layers' public functions on p, one of the
// workload's own instances, and adds the model, graph, routing, deploy
// and daemon kernel metrics.
func kernelPass(into map[string]metric, p *model.Problem) error {
	if err := evaluatorKernels(into, p); err != nil {
		return fmt.Errorf("evaluator kernels: %w", err)
	}
	if err := routeKernels(into, p); err != nil {
		return fmt.Errorf("graph and routing kernels: %w", err)
	}
	if err := requestKernels(into, p); err != nil {
		return fmt.Errorf("request kernels: %w", err)
	}
	return nil
}

func evaluatorKernels(into map[string]metric, p *model.Problem) error {
	if p.Nodes <= p.N() {
		return fmt.Errorf("need more nodes than posts to draw transfer moves, have %d for %d posts", p.Nodes, p.N())
	}
	base, err := model.UniformDeployment(p.N(), p.Nodes)
	if err != nil {
		return err
	}
	ev, err := model.NewIncrementalEvaluator(p)
	if err != nil {
		return err
	}
	const slots = 64
	ev.EnableProbeCache(slots)

	costUS, err := timeOps(func(int) error { _, err := ev.Cost(base); return err })
	if err != nil {
		return err
	}
	cur, err := ev.Cost(base)
	if err != nil {
		return err
	}
	g := &moveGen{rng: rand.New(rand.NewSource(1)), m: append([]int(nil), base...)}

	probeUS, err := timeOps(func(int) error {
		if _, err := ev.CostDelta(g.next()); err != nil {
			return err
		}
		return ev.Revert()
	})
	if err != nil {
		return err
	}

	var bounded, pruned int
	boundedUS, err := timeOps(func(int) error {
		bounded++
		_, cut, err := ev.CostDeltaBounded(g.next(), cur)
		if err != nil || cut {
			if cut {
				pruned++
			}
			return err
		}
		return ev.Revert()
	})
	if err != nil {
		return err
	}

	for id := 0; id < slots; id++ {
		if _, err := ev.CostDelta(g.next()); err != nil {
			return err
		}
		ev.CacheProbe(id)
		if err := ev.Revert(); err != nil {
			return err
		}
	}
	var cacheTries, cacheHits int
	cachedUS, err := timeOps(func(i int) error {
		cacheTries++
		if _, ok := ev.CachedCost(i % slots); ok {
			cacheHits++
		}
		return nil
	})
	if err != nil {
		return err
	}

	var commitTotal []time.Duration
	for i := 0; i < 400; i++ {
		moves := g.next()
		if _, err := ev.CostDelta(moves); err != nil {
			return err
		}
		t := time.Now()
		if err := ev.Commit(); err != nil {
			return err
		}
		commitTotal = append(commitTotal, time.Since(t))
		g.apply(moves)
	}
	sort.Slice(commitTotal, func(a, b int) bool { return commitTotal[a] < commitTotal[b] })

	st := ev.Stats()
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	into["model.cost_us"] = metric{costUS, "us"}
	into["model.probe_us"] = metric{probeUS, "us"}
	into["model.bounded_probe_us"] = metric{boundedUS, "us"}
	into["model.cached_cost_us"] = metric{cachedUS, "us"}
	into["model.commit_us"] = metric{float64(commitTotal[len(commitTotal)/2]) / float64(time.Microsecond), "us"}
	into["model.repair_frac"] = metric{frac(st.Repairs, st.Probes), "fraction"}
	into["model.fallback_frac"] = metric{frac(st.Fallbacks, st.Probes), "fraction"}
	into["model.prune_frac"] = metric{frac(int64(pruned), int64(bounded)), "fraction"}
	into["model.cache_hit_frac"] = metric{frac(int64(cacheHits), int64(cacheTries)), "fraction"}
	return nil
}

func routeKernels(into map[string]metric, p *model.Problem) error {
	cg, err := model.NewCommGraph(p)
	if err != nil {
		return err
	}
	wf := p.EnergyWeights()
	reweightUS, err := timeOps(func(int) error { return cg.Reweight(wf) })
	if err != nil {
		return err
	}
	router := graph.NewRouter(cg.Graph())
	var dag *graph.DAG
	before := router.Settled()
	var queries int64
	dagUS, err := timeOps(func(int) error {
		queries++
		var err error
		dag, err = router.DAGTo(p.BSIndex(), model.DAGTolerance)
		return err
	})
	if err != nil {
		return err
	}
	settled := float64(router.Settled()-before) / float64(queries)

	trimmer := routing.NewTrimmer(p.N())
	var trimmed routing.TrimResult
	trimUS, err := timeOps(func(int) error { return trimmer.Trim(dag, p.ReportRates, nil, &trimmed) })
	if err != nil {
		return err
	}
	spec := routing.MergeSpec{NPosts: p.N(), Pos: p.Point, TxEnergyBetween: cg.TxBetween}
	merged := make([]int, len(trimmed.Parent))
	mergeUS, err := timeOps(func(int) error {
		copy(merged, trimmed.Parent)
		_, err := routing.MergeSiblings(spec, merged)
		return err
	})
	if err != nil {
		return err
	}
	tree, err := model.NewTreeFromParents(p, trimmed.Parent)
	if err != nil {
		return err
	}
	energies := tree.PostEnergies(p)
	var counts []int
	allocUS, err := timeOps(func(int) error {
		var err error
		counts, err = deploy.Allocate(energies, p.Nodes)
		return err
	})
	if err != nil {
		return err
	}
	evalUS, err := timeOps(func(int) error { _, err := model.Evaluate(p, counts, tree); return err })
	if err != nil {
		return err
	}
	into["graph.reweight_us"] = metric{reweightUS, "us"}
	into["graph.dag_us"] = metric{dagUS, "us"}
	into["graph.settled"] = metric{settled, "count"}
	into["routing.trim_us"] = metric{trimUS, "us"}
	into["routing.merge_us"] = metric{mergeUS, "us"}
	into["deploy.allocate_us"] = metric{allocUS, "us"}
	into["model.evaluate_us"] = metric{evalUS, "us"}
	return nil
}

// requestKernels times the daemon's per-request work on p outside the
// server: decoding a plan request and computing its canonical key.
func requestKernels(into map[string]metric, p *model.Problem) error {
	body, err := json.Marshal(daemon.PlanRequest{Solver: "idb", Problem: p})
	if err != nil {
		return err
	}
	decodeUS, err := timeOps(func(int) error {
		var req daemon.PlanRequest
		return json.Unmarshal(body, &req)
	})
	if err != nil {
		return err
	}
	keyUS, err := timeOps(func(int) error {
		sig, err := model.CanonicalSignature(p)
		if err != nil {
			return err
		}
		model.CanonicalKey("idb|" + sig)
		return nil
	})
	if err != nil {
		return err
	}
	into["daemon.decode_us"] = metric{decodeUS, "us"}
	into["daemon.canonical_key_us"] = metric{keyUS, "us"}
	return nil
}

// placementKernels times the charger-placement evaluator on inst: a full
// evaluation and a one-site probe with its revert.
func placementKernels(into map[string]metric, inst *placement.Instance) error {
	ev, err := placement.NewIncrementalEvaluator(inst)
	if err != nil {
		return err
	}
	m := make([]int, inst.Dims())
	for i := range m {
		m[i] = 1
	}
	costUS, err := timeOps(func(int) error { _, err := ev.Cost(m); return err })
	if err != nil {
		return err
	}
	if _, err := ev.Cost(m); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	probeUS, err := timeOps(func(int) error {
		if _, err := ev.CostDelta([]model.Move{{Post: rng.Intn(len(m)), Delta: -1}}); err != nil {
			return err
		}
		return ev.Revert()
	})
	if err != nil {
		return err
	}
	into["placement.cost_us"] = metric{costUS, "us"}
	into["placement.probe_us"] = metric{probeUS, "us"}
	return nil
}
