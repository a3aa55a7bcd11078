package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// OptimalOptions configures the exact branch-and-bound solver.
type OptimalOptions struct {
	// MaxEvaluations aborts the search after this many *completed*
	// deployment evaluations (bound probes + leaves; probes the bounded
	// evaluator abandons mid-settle or a relaxed bound certifies never
	// produce a cost and do not count — the same semantics as the
	// Result.Evaluations counter);
	// 0 means unlimited. When the search aborts, ErrSearchBudget is
	// returned.
	MaxEvaluations int64
	// Incumbent optionally seeds the search with a known-feasible
	// solution (e.g. from IDB); nil lets Optimal run IDB(1) itself.
	Incumbent *Result
}

// ErrSearchBudget is returned when Optimal exceeds MaxEvaluations.
var ErrSearchBudget = errors.New("solver: optimal search exceeded its evaluation budget")

// costSlack absorbs floating-point noise when comparing candidate costs
// during the exact search, so bound-vs-incumbent pruning is never unsound
// by a rounding error. Costs are O(1e2..1e4) nJ with O(1e-13) relative
// noise; 1e-9 is orders of magnitude above both.
const costSlack = 1e-9

// relaxedBounder is the evaluator capability behind Optimal's
// parent-distance certificate (model.IncrementalEvaluator implements
// it): CommittedDistances snapshots a completed probe's distances and
// their order, and RelaxedBound prices a dominated deployment from such
// a snapshot without settling, pruning only where CostDeltaBounded
// would prune too.
type relaxedBounder interface {
	CommittedDistances(dist []float64, order []int) error
	RelaxedBound(lower []float64, order []int, m []int, limit float64) (bound float64, pruned bool, err error)
}

// Optimal computes the exact minimum total recharging cost by
// branch-and-bound over deployments. It relies on two structural facts:
//
//  1. For a fixed deployment the optimal routing is a shortest-path tree
//     under recharging-cost weights, so evaluating a deployment is one
//     shortest-path computation — probed as a delta against the
//     previously evaluated vector (model.IncrementalEvaluator), so
//     sibling search nodes pay only for the posts they change.
//  2. The cost is monotone non-increasing in every m_i, so giving every
//     undecided post the largest node count it could still receive yields
//     an admissible lower bound for the whole subtree of completions.
//
// Posts are branched in decreasing order of routing workload under the
// incumbent's tree, with larger node counts tried first — the shape the
// optimum overwhelmingly takes — so the incumbent prunes aggressively.
// Practical for the paper's small-scale comparison (Fig. 7: N<=12,
// M<=36); use IDB or RFH beyond that.
//
// Most bound probes prune, and a probe proven to prune need not settle.
// From depth 2 on a node's bound vector is componentwise at most its
// parent's, whose probe completed before the search descended, so by
// fact 2 (and the monotonicity of IEEE division and addition) the
// parent's committed distances are pointwise lower bounds on the
// child's. One relaxation round from them (relaxedBounder) prices
// a lower bound in O(E) without touching the evaluator, and it prunes
// only at limit+2·boundedSlack, where the bounded settle is certain to
// abandon the probe too. A certified prune therefore replaces a settle
// that would have pruned: the search visits the same nodes in the same
// order, and Result.Evaluations, the budget and the cancellation cadence
// are unchanged.
//
// Fact 2 is a theorem for deployment (more nodes never worsen the
// optimal routing) and false in general — charger placement's site costs
// grow with every added unit — so every instance other than the
// deployment problem is rejected with an UnsupportedError. The context is checked on a ctxCheckStride cadence
// inside the evaluation closure — the single funnel every search node
// passes through — so a cancelled search unwinds and returns ctx.Err()
// within a handful of Dijkstra runs.
func Optimal(ctx context.Context, inst model.Instance, opts OptimalOptions) (*Result, error) {
	p, ok := inst.(*model.Problem)
	if !ok {
		return nil, unsupported("optimal", inst)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	ev, err := newDeltaEvaluator(p)
	if err != nil {
		return nil, err
	}

	incumbent := opts.Incumbent
	if incumbent == nil {
		incumbent, err = IDB(ctx, p, IDBOptions{Delta: 1})
		if err != nil {
			return nil, fmt.Errorf("solver: optimal could not seed incumbent: %w", err)
		}
	}
	bestCost := incumbent.Cost
	bestDeploy := incumbent.Deploy.Clone()

	// Branch order: decreasing workload in the incumbent's tree.
	sizes := incumbent.Tree.SubtreeSizes(p)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})

	var (
		evaluations int64
		probes      int64
		budgetErr   error
		counts      = make([]int, n) // counts in *post* index space
		boundBuf    = make([]int, n)
		// lowers and orders hold, per depth, the committed distances of
		// that depth's completed bound probe and its posts in distance
		// order: pointwise lower bounds on every descendant bound probe's
		// distances (see relaxedBounder).
		rb, _  = ev.ev.(relaxedBounder)
		lowers []float64
		orders []int
	)
	if rb != nil {
		lowers = make([]float64, n*(n+1))
		orders = make([]int, n*n)
	}
	lowerAt := func(depth int) ([]float64, []int) {
		return lowers[depth*(n+1) : (depth+1)*(n+1)], orders[depth*n : (depth+1)*n]
	}
	// evaluate prices m against the prune threshold bestCost-costSlack.
	// A pruned probe proves its cost would not beat the incumbent and is
	// abandoned mid-settle (model.BoundedProber), so it never produces a
	// float and is not counted in Evaluations — MaxEvaluations therefore
	// budgets *completed* evaluations, matching the reported counter.
	// Cancellation and the budget are checked on the probe cadence so
	// long pruned streaks cannot stall either. A non-nil lower holds a
	// dominating completed probe's distances: when the relaxed bound
	// from them certifies the prune, the settle is skipped — a certified
	// prune is one the settle would have made, so it counts as a probe
	// exactly like a settle-pruned one.
	evaluate := func(m []int, lower []float64, byDist []int) (float64, bool, error) {
		probes++
		if opts.MaxEvaluations > 0 && evaluations >= opts.MaxEvaluations {
			return 0, false, ErrSearchBudget
		}
		if probes%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, false, err
			}
		}
		if lower != nil {
			if _, pruned, err := rb.RelaxedBound(lower, byDist, m, bestCost-costSlack); err != nil || pruned {
				return 0, pruned, err
			}
		}
		// Sibling search nodes share most of their vector, so the delta
		// funnel reprices only the posts the branch actually changed.
		cost, pruned, err := ev.evalBounded(m, bestCost-costSlack)
		if err != nil {
			return 0, false, err
		}
		if !pruned {
			evaluations++
		}
		return cost, pruned, nil
	}

	// dfs assigns order[depth..]; budget nodes remain for them.
	var dfs func(depth, budget int) error
	dfs = func(depth, budget int) error {
		remaining := n - depth
		if remaining == 0 {
			cost, pruned, err := evaluate(counts, nil, nil)
			if err != nil {
				return err
			}
			if !pruned && cost < bestCost-costSlack {
				bestCost = cost
				copy(bestDeploy, counts)
			}
			return nil
		}
		if depth > 0 {
			// Admissible bound: every undecided post gets the most it
			// could still receive (others at their minimum of 1).
			maxEach := budget - (remaining - 1)
			copy(boundBuf, counts)
			for _, i := range order[depth:] {
				boundBuf[i] = maxEach
			}
			// From depth 2 on the parent's bound vector dominates this
			// one (one more post fixed at m <= its maxEach, the rest
			// lowered to maxEach-m+1), so its distances bound ours.
			var (
				lower  []float64
				byDist []int
			)
			if rb != nil && depth >= 2 {
				lower, byDist = lowerAt(depth - 1)
			}
			lb, pruned, err := evaluate(boundBuf, lower, byDist)
			if err != nil {
				return err
			}
			if pruned || lb >= bestCost-costSlack {
				return nil
			}
			if maxEach == 1 || remaining == 1 {
				// The bound vector IS this subtree's only completion
				// (budget == remaining forces every undecided post to 1;
				// one undecided post takes the whole budget), so the
				// non-pruned subtree holds exactly one leaf whose cost is
				// the float just computed. Descending would re-evaluate
				// that same vector at every chain node and at the leaf —
				// all empty-diff probes returning bit-identical floats,
				// with the incumbent unchanged in between (only leaves
				// update it) — before accepting it through the improve
				// test, which is the exact complement of the prune test
				// above on the same float. Fold the chain into the bound
				// evaluation and accept directly.
				bestCost = lb
				copy(bestDeploy, boundBuf)
				return nil
			}
			if rb != nil {
				// The probe just completed, so the evaluator holds its
				// distances as the committed state.
				if err := rb.CommittedDistances(lowerAt(depth)); err != nil {
					return err
				}
			}
		}
		post := order[depth]
		if remaining == 1 {
			// Only reachable at depth == 0 (n == 1): no bound was
			// evaluated, so the single leaf still needs pricing.
			counts[post] = budget
			err := dfs(depth+1, 0)
			counts[post] = 0
			return err
		}
		// Larger counts first: the optimum concentrates nodes on
		// high-workload posts, which this order reaches early.
		for m := budget - (remaining - 1); m >= 1; m-- {
			counts[post] = m
			if err := dfs(depth+1, budget-m); err != nil {
				counts[post] = 0
				return err
			}
		}
		counts[post] = 0
		return nil
	}
	if err := dfs(0, p.Nodes); err != nil {
		if errors.Is(err, ErrSearchBudget) {
			budgetErr = err
		} else {
			return nil, err
		}
	}
	if budgetErr != nil {
		return nil, budgetErr
	}

	return finishDeployment(p, ev.ev, bestDeploy, evaluations)
}

// NaiveExact exhaustively enumerates every deployment of M nodes over N
// posts (the paper's C(M-1, N-1) search) and returns the global optimum.
// It exists as a correctness oracle for Optimal on tiny instances; its
// cost explodes combinatorially.
func NaiveExact(p *model.Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Dims()
	ev, err := newDeltaEvaluator(p)
	if err != nil {
		return nil, err
	}
	var (
		bestCost    = -1.0
		bestDeploy  model.Deployment
		evaluations int64
		evalFailure error
	)
	loopErr := deploy.ForEachDeployment(n, p.Nodes, func(m []int) bool {
		// Successive compositions differ in a couple of entries, so the
		// delta funnel turns the exhaustive sweep into cheap repairs.
		cost, err := ev.eval(m)
		evaluations++
		if err != nil {
			evalFailure = err
			return false
		}
		if bestDeploy == nil || cost < bestCost {
			bestCost = cost
			bestDeploy = append(bestDeploy[:0], m...)
		}
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	if evalFailure != nil {
		return nil, evalFailure
	}
	if bestDeploy == nil {
		return nil, errors.New("solver: exhaustive search found no deployment")
	}
	return finishDeployment(p, ev.ev, bestDeploy, evaluations)
}
