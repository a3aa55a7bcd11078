package solver

import (
	"context"
	"fmt"
	"sync"

	"wrsn/internal/deploy"
	"wrsn/internal/model"
)

// ctxCheckStride is how many inner evaluations (Dijkstra runs) pass
// between context checks in the solvers' hot loops: frequent enough that
// cancellation lands within milliseconds, rare enough to stay invisible
// in profiles.
const ctxCheckStride = 64

// IDBOptions configures IDB.
type IDBOptions struct {
	// Delta is the per-round node increment (>= 1; the paper uses 1).
	Delta int
	// Workers is the number of evaluators pricing a single-unit round's
	// candidates concurrently; <= 1 prices them inline. It applies at
	// Delta 1 on every problem family, free-total growth included;
	// rounds spreading more than one unit scan their compositions
	// sequentially. Each worker carries its own evaluator (the protocol
	// is not concurrency-safe), so memory scales with workers, while
	// costs, solutions and evaluation counts stay bit-identical to the
	// sequential run.
	Workers int
}

// IDB runs the Incremental Deployment-Based heuristic (Section V-B).
//
// Every post starts with one node. The remaining M-N nodes are placed in
// rounds of delta nodes each (a final short round handles any remainder):
// each round enumerates all C(N+delta-1, N-1) ways to spread its delta
// nodes over the posts, evaluates each candidate's minimum-cost routing —
// a shortest-path tree under recharging-cost weights, probed as a
// CostDelta against the round's committed base so only the repriced
// region is recomputed — and commits the cheapest. Smaller delta is
// cheaper per round but greedier; the paper's comparisons use delta = 1.
//
// The same incremental growth solves every problem family: with a fixed
// solution total the rounds spread it as for deployment, without one
// the search greedily adds the single best unit per round while that
// strictly improves the cost. Each round is one of two kinds. A
// single-unit round (every round at delta 1, a short final round, every
// free-total round) is priced by one striped scan over opts.Workers
// evaluators; see idbRounds. A composition round (delta > 1) scans
// every composition sequentially on one evaluator.
//
// The context is checked at every round boundary and every
// ctxCheckStride candidates (by every worker), so a cancelled run
// returns ctx.Err() within a handful of Dijkstra runs.
func IDB(ctx context.Context, inst model.Instance, opts IDBOptions) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if opts.Delta < 1 {
		return nil, fmt.Errorf("solver: IDB delta must be >= 1, got %d", opts.Delta)
	}
	workers := 1
	if opts.Workers > 1 && opts.Delta == 1 {
		// A worker beyond the dimension count would own an empty stripe.
		workers = min(opts.Workers, inst.Dims())
	}
	cur := model.LowerBoundVector(inst)
	s, curCost, err := newIDBRounds(inst, cur, workers)
	if err != nil {
		return nil, err
	}
	total, fixed := inst.FixedTotal()
	remaining := total
	for _, c := range cur {
		remaining -= c
	}
	for !fixed || remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if step := min(opts.Delta, remaining); fixed && step > 1 {
			if err := s.compositionRound(ctx, cur, step); err != nil {
				return nil, err
			}
			remaining -= step
			continue
		}
		bestI, bestCost, err := s.unitRound(ctx, cur)
		if err != nil {
			return nil, err
		}
		if !fixed && (bestI < 0 || bestCost >= curCost-costSlack) {
			break // free total: no unit strictly improves the cost
		}
		if bestI < 0 {
			return nil, fmt.Errorf("solver: IDB round evaluated no candidates (delta=1)")
		}
		if err := s.commitUnit(bestI); err != nil {
			return nil, err
		}
		cur[bestI]++
		curCost = bestCost
		remaining--
	}
	return finish(inst, s.evs[0], cur, s.evaluations)
}

// upperBounds materialises inst's per-dimension upper bounds so the hot
// loops test them as array loads instead of interface calls.
func upperBounds(inst model.Instance) []int {
	ub := make([]int, inst.Dims())
	for i := range ub {
		ub[i] = inst.UpperBound(i)
	}
	return ub
}

// idbRounds is IDB's per-run search state: one evaluator per worker,
// each on the committed vector, and the candidate evaluation count.
//
// A single-unit round prices every candidate "add one unit to dimension
// i" by a striped scan: evaluator w owns the candidates i ≡ w (mod
// workers) and keeps their probes in its own probe cache. Whether a
// candidate is re-priced from its cached patch (not counted as an
// evaluation — no repair ran) or re-probed therefore depends only on
// the committed move sequence, exactly as with one evaluator, so costs
// and evaluation counts are bit-identical at any worker count. Each
// evaluator writes its costs into its own entries of costs, and one
// sequential pass over i = n-1 .. 0 picks the winner. Merging
// per-worker bests pairwise instead would not be safe: within costSlack
// the comparison is not transitive, so a tie chain could resolve
// differently from the sequential scan. The winner is then committed
// into every evaluator, promoted from the cache where it is held.
type idbRounds struct {
	ub     []int
	evs    []model.Evaluator
	caches []model.ProbeCache // caches[w] is evs[w]'s probe cache, or nil
	// moves is each evaluator's one-move probe buffer. Keeping it here,
	// not on the stack, stops it escaping through the CostDelta
	// interface call into one heap allocation per round.
	moves       [][1]model.Move
	costs       []float64 // costs[i]: single-unit candidate i's cost this round
	counts      []int64   // fresh probes per evaluator this round
	errs        []error   // first failure per evaluator this round
	evaluations int64
}

// newIDBRounds builds workers evaluators on cur with their probe caches
// enabled, and returns cur's cost.
func newIDBRounds(inst model.Instance, cur []int, workers int) (*idbRounds, float64, error) {
	n := len(cur)
	s := &idbRounds{
		ub:     upperBounds(inst),
		evs:    make([]model.Evaluator, workers),
		caches: make([]model.ProbeCache, workers),
		moves:  make([][1]model.Move, workers),
		costs:  make([]float64, n),
		counts: make([]int64, workers),
		errs:   make([]error, workers),
	}
	var curCost float64
	for w := range s.evs {
		ev, err := inst.NewEvaluator()
		if err != nil {
			return nil, 0, err
		}
		if curCost, err = ev.Cost(cur); err != nil {
			return nil, 0, err
		}
		if pc, ok := ev.(model.ProbeCache); ok {
			pc.EnableProbeCache(n)
			s.caches[w] = pc
		}
		s.evs[w] = ev
	}
	return s, curCost, nil
}

// unitRound prices every single-unit candidate with headroom and
// returns the winner — the cheapest, ties within costSlack kept by the
// largest index, which is the order ForEachComposition(n, 1) visits —
// or bestI = -1 when no dimension has headroom.
func (s *idbRounds) unitRound(ctx context.Context, cur []int) (bestI int, bestCost float64, err error) {
	if len(s.evs) == 1 {
		s.scanStripe(ctx, 0, cur)
	} else {
		var wg sync.WaitGroup
		for w := range s.evs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.scanStripe(ctx, w, cur)
			}()
		}
		wg.Wait()
	}
	for w := range s.evs {
		s.evaluations += s.counts[w]
		s.counts[w] = 0
		if err := s.errs[w]; err != nil {
			return -1, 0, err
		}
	}
	bestI = -1
	for i := len(cur) - 1; i >= 0; i-- {
		if cur[i]+1 > s.ub[i] {
			continue
		}
		if bestI < 0 || s.costs[i] < bestCost-costSlack {
			bestI = i
			bestCost = s.costs[i]
		}
	}
	return bestI, bestCost, nil
}

// scanStripe prices evaluator w's candidates into s.costs, from its
// largest owned index down.
func (s *idbRounds) scanStripe(ctx context.Context, w int, cur []int) {
	n, workers := len(cur), len(s.evs)
	ev, pc, mv := s.evs[w], s.caches[w], s.moves[w][:]
	var seen int64
	for i := w + (n-1-w)/workers*workers; i >= 0; i -= workers {
		if cur[i]+1 > s.ub[i] {
			continue
		}
		seen++
		if seen%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				s.errs[w] = err
				return
			}
		}
		if pc != nil {
			if cost, ok := pc.CachedCost(i); ok {
				s.costs[i] = cost
				continue
			}
		}
		mv[0] = model.Move{Post: i, Delta: 1}
		cost, err := ev.CostDelta(mv)
		s.counts[w]++
		if err != nil {
			s.errs[w] = err
			return
		}
		if pc != nil {
			pc.CacheProbe(i)
		}
		if err := ev.Revert(); err != nil {
			s.errs[w] = err
			return
		}
		s.costs[i] = cost
	}
}

// commitUnit commits "add one unit to dimension i" into every
// evaluator: the probe-promoting commit where its cache still holds the
// probe, otherwise a re-probe (not counted as an evaluation) and
// Commit.
func (s *idbRounds) commitUnit(i int) error {
	for w, ev := range s.evs {
		if pc := s.caches[w]; pc != nil {
			if _, ok := pc.CommitCached(i); ok {
				continue
			}
		}
		mv := s.moves[w][:]
		mv[0] = model.Move{Post: i, Delta: 1}
		if _, err := ev.CostDelta(mv); err != nil {
			return err
		}
		if err := ev.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// compositionRound spreads step > 1 units over cur: it prices every
// feasible composition on the first evaluator in ForEachComposition's
// lexicographic order, keeps the cheapest by less, and commits it.
func (s *idbRounds) compositionRound(ctx context.Context, cur []int, step int) error {
	ev := s.evs[0]
	var moves []model.Move
	extraMoves := func(extra []int) []model.Move {
		moves = moves[:0]
		for i, e := range extra {
			if e != 0 {
				moves = append(moves, model.Move{Post: i, Delta: e})
			}
		}
		return moves
	}
	bestExtra := make([]int, len(cur))
	bestCost, found := 0.0, false
	var evalErr error
	err := deploy.ForEachComposition(len(cur), step, func(extra []int) bool {
		for i, e := range extra {
			if e != 0 && cur[i]+e > s.ub[i] {
				return true // infeasible candidate (never for deployment)
			}
		}
		if s.evaluations%ctxCheckStride == 0 {
			if evalErr = ctx.Err(); evalErr != nil {
				return false
			}
		}
		var cost float64
		cost, evalErr = ev.CostDelta(extraMoves(extra))
		s.evaluations++
		if evalErr != nil {
			return false
		}
		if evalErr = ev.Revert(); evalErr != nil {
			return false
		}
		if !found || less(cost, extra, bestCost, bestExtra) {
			found = true
			bestCost = cost
			copy(bestExtra, extra)
		}
		return true
	})
	if err != nil {
		return err
	}
	if evalErr != nil {
		return evalErr
	}
	if !found {
		return fmt.Errorf("solver: IDB round evaluated no candidates (delta=%d)", step)
	}
	if _, err := ev.CostDelta(extraMoves(bestExtra)); err != nil {
		return err
	}
	if err := ev.Commit(); err != nil {
		return err
	}
	for i, e := range bestExtra {
		cur[i] += e
	}
	return nil
}

// less orders candidates by (cost, lexicographic placement), so a
// composition round commits the first-enumerated of any tie. Cost
// comparisons use costSlack so floating-point noise cannot flip the
// placement order.
func less(costA float64, extraA []int, costB float64, extraB []int) bool {
	if costA < costB-costSlack {
		return true
	}
	if costA > costB+costSlack {
		return false
	}
	for i := range extraA {
		if extraA[i] != extraB[i] {
			return extraA[i] < extraB[i]
		}
	}
	return false
}
