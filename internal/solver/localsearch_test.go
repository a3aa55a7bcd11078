package solver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"wrsn/internal/model"
)

func TestLocalSearchImprovesOrMatchesSeed(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := randomProblem(t, seed+40, 200, 12, 40)
		rfh, err := RFH(context.Background(), p, RFHOptions{Iterations: DefaultRFHIterations})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{Start: rfh})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ls.Cost > rfh.Cost+costEps {
			t.Errorf("seed %d: local search worsened the seed: %.6f -> %.6f", seed, rfh.Cost, ls.Cost)
		}
		if _, err := model.Evaluate(p, ls.Deploy, ls.Tree); err != nil {
			t.Errorf("seed %d: invalid result: %v", seed, err)
		}
	}
}

// TestLocalSearchReachesOptimumOnSmallInstances: from an RFH seed the
// hill climber should close most of the gap to the exact optimum, and
// never do worse than the seed.
func TestLocalSearchNearOptimal(t *testing.T) {
	worst := 0.0
	for seed := int64(1); seed <= 8; seed++ {
		p := randomProblem(t, seed+60, 150, 7, 18)
		opt, err := Optimal(context.Background(), p, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ls.Cost < opt.Cost-costEps {
			t.Fatalf("seed %d: local search %.6f beat the optimum %.6f", seed, ls.Cost, opt.Cost)
		}
		gap := (ls.Cost - opt.Cost) / opt.Cost
		worst = math.Max(worst, gap)
		if gap > 0.05 {
			t.Errorf("seed %d: local search gap to optimal %.2f%% exceeds 5%%", seed, gap*100)
		}
	}
	t.Logf("worst local-search gap to optimal over 8 seeds: %.3f%%", worst*100)
}

func TestLocalSearchIsOneMoveOptimal(t *testing.T) {
	p := randomProblem(t, 77, 200, 8, 20)
	ls, err := LocalSearch(context.Background(), p, LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := model.NewCostEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.N()
	for from := 0; from < n; from++ {
		if ls.Deploy[from] <= 1 {
			continue
		}
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			probe := ls.Deploy.Clone()
			probe[from]--
			probe[to]++
			cost, err := ev.MinCost(probe)
			if err != nil {
				t.Fatal(err)
			}
			if cost < ls.Cost-1e-6 {
				t.Fatalf("not 1-move-optimal: moving a node %d->%d improves %.6f to %.6f",
					from, to, ls.Cost, cost)
			}
		}
	}
}

func TestLocalSearchMaxPasses(t *testing.T) {
	p := randomProblem(t, 78, 200, 10, 40)
	one, err := LocalSearch(context.Background(), p, LocalSearchOptions{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := LocalSearch(context.Background(), p, LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost > one.Cost+costEps {
		t.Errorf("unbounded search (%.6f) worse than 1-pass (%.6f)", full.Cost, one.Cost)
	}
}

func TestLocalSearchRejectsBadSeed(t *testing.T) {
	p := randomProblem(t, 79, 200, 8, 20)
	bad := &Result{Solution: model.Solution{Deploy: model.Ones(3)}} // wrong size
	if _, err := LocalSearch(context.Background(), p, LocalSearchOptions{Start: bad}); err == nil {
		t.Error("invalid seed accepted")
	}
}

// TestIDBParallelMatchesSequential pins the striped single-unit scan:
// at any worker count IDB returns the sequential run's cost bits,
// vector and evaluation count, on both problem families (placement's
// free-total rounds run on the pool too) and with more workers than
// dimensions.
func TestIDBParallelMatchesSequential(t *testing.T) {
	check := func(label string, inst model.Instance, delta, workers int) {
		t.Helper()
		seq, err := IDB(context.Background(), inst, IDBOptions{Delta: delta})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		par, err := IDB(context.Background(), inst, IDBOptions{Delta: delta, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %d workers: %v", label, workers, err)
		}
		if math.Float64bits(seq.Cost) != math.Float64bits(par.Cost) {
			t.Errorf("%s: %d-worker cost %.17g != sequential %.17g", label, workers, par.Cost, seq.Cost)
		}
		if !slices.Equal(seq.Vector, par.Vector) || !slices.Equal(seq.Deploy, par.Deploy) {
			t.Errorf("%s: %d-worker solution %v%v != sequential %v%v",
				label, workers, par.Vector, par.Deploy, seq.Vector, seq.Deploy)
		}
		if seq.Evaluations != par.Evaluations {
			t.Errorf("%s: %d-worker evaluations %d != sequential %d",
				label, workers, par.Evaluations, seq.Evaluations)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := randomProblem(t, seed+90, 250, 20, 70)
		for _, delta := range []int{1, 3} {
			check(fmt.Sprintf("deployment seed %d delta %d", seed, delta), p, delta, 4)
		}
		check(fmt.Sprintf("placement seed %d", seed), testPlacementInstance(t, seed), 1, 4)
	}
	check("3 posts", randomProblem(t, 96, 100, 3, 12), 1, 8)
}

// tieInstance is a scripted one-round instance: three dimensions in
// [0,1] summing to 1, where adding the unit to dimension i costs
// unit[i] (tieEvaluator).
type tieInstance struct{ unit []float64 }

func (ti tieInstance) Kind() string            { return "tie-chain" }
func (ti tieInstance) Dims() int               { return len(ti.unit) }
func (ti tieInstance) LowerBound(int) int      { return 0 }
func (ti tieInstance) UpperBound(int) int      { return 1 }
func (ti tieInstance) FixedTotal() (int, bool) { return 1, true }
func (ti tieInstance) NewEvaluator() (model.Evaluator, error) {
	return &tieEvaluator{unit: ti.unit}, nil
}
func (ti tieInstance) NewReferenceEvaluator() (model.Evaluator, error) { return ti.NewEvaluator() }
func (ti tieInstance) EncodeSolution(m []int) string                   { return model.EncodeCounts(m) }
func (ti tieInstance) Validate() error                                 { return model.CheckInstanceBounds(ti) }

func (ti tieInstance) ValidateSolution(m []int) error {
	sum := 0
	for i, v := range m {
		if v < 0 || v > 1 {
			return fmt.Errorf("dimension %d count %d outside [0,1]", i, v)
		}
		sum += v
	}
	if len(m) != ti.Dims() || sum != 1 {
		return fmt.Errorf("solution %v is not one unit over %d dimensions", m, ti.Dims())
	}
	return nil
}

// tieEvaluator prices a vector as the sum of its units' scripted costs.
type tieEvaluator struct {
	unit         []float64
	cur, pending []int
}

func (e *tieEvaluator) price(m []int) float64 {
	cost := 0.0
	for i, v := range m {
		cost += float64(v) * e.unit[i]
	}
	return cost
}

func (e *tieEvaluator) Cost(m []int) (float64, error) {
	e.cur = append(e.cur[:0], m...)
	return e.price(m), nil
}

func (e *tieEvaluator) CostDelta(moves []model.Move) (float64, error) {
	e.pending = append(e.pending[:0], e.cur...)
	for _, mv := range moves {
		e.pending[mv.Post] += mv.Delta
	}
	return e.price(e.pending), nil
}

func (e *tieEvaluator) Commit() error {
	e.cur, e.pending = e.pending, e.cur
	return nil
}

func (e *tieEvaluator) Revert() error { return nil }

// TestIDBParallelTieChain: single-unit costs a, a-0.6·costSlack and
// a-1.2·costSlack for posts 2, 1 and 0 form a tie chain — each
// neighbour pair ties within costSlack, the ends do not. The sequential
// scan (posts 2, 1, 0) keeps post 2 over post 1 and then takes post 0;
// merging per-worker bests pairwise could end on post 1 or 2 instead.
// Every worker count must commit post 0.
func TestIDBParallelTieChain(t *testing.T) {
	const a = 10.0
	inst := tieInstance{unit: []float64{a - 1.2*costSlack, a - 0.6*costSlack, a}}
	if !less(inst.unit[1], []int{0, 1, 0}, inst.unit[0], []int{1, 0, 0}) {
		t.Fatal("scripted costs are not a tie chain: post 1 does not beat post 0 pairwise")
	}
	for _, workers := range []int{1, 2, 3} {
		res, err := IDB(context.Background(), inst, IDBOptions{Delta: 1, Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !slices.Equal(res.Vector, []int{1, 0, 0}) {
			t.Errorf("%d workers committed %v, want post 0 ([1 0 0])", workers, res.Vector)
		}
	}
}

func TestIDBParallelValidation(t *testing.T) {
	p := randomProblem(t, 95, 200, 8, 16)
	if _, err := IDB(context.Background(), p, IDBOptions{Delta: 0}); err == nil {
		t.Error("delta 0 accepted")
	}
	res, err := IDB(context.Background(), p, IDBOptions{Delta: 1, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deploy.Sum() != p.Nodes {
		t.Errorf("deployed %d of %d nodes", res.Deploy.Sum(), p.Nodes)
	}
}
