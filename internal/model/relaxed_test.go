package model

import (
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/charging"
	"wrsn/internal/geom"
)

// FuzzRelaxedBound checks the two facts branch-and-bound relies on when
// it prunes from a parent's distances instead of settling, over
// generated scan-min-regime problems (at most 15 posts) and random pairs
// child <= parent with sum(child) <= M:
//
//   - admissibility: the relaxed bound from the parent's committed
//     distances never exceeds CostEvaluator.MinCost(child);
//   - decision equivalence: whenever RelaxedBound prunes at a limit L,
//     CostDeltaBounded on the same child at L also prunes, from every
//     committed base whose efficiencies differ from the child's (a base
//     with identical efficiencies changes no weight and is priced from
//     the standing solution without settling, so it never prunes).
func FuzzRelaxedBound(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(26), uint8(0), int64(1))
	f.Add(int64(2), uint8(7), uint8(20), uint8(1), int64(2))
	f.Add(int64(3), uint8(13), uint8(40), uint8(2), int64(3))
	f.Add(int64(4), uint8(4), uint8(3), uint8(3), int64(4))
	f.Add(int64(5), uint8(11), uint8(9), uint8(5), int64(5))
	f.Fuzz(func(t *testing.T, probSeed int64, posts, spare, variant uint8, seed int64) {
		n := 2 + int(posts)%14
		nodes := n + int(spare)%(3*n+1)
		cm := charging.Model{EtaSingle: 1}
		switch variant % 3 {
		case 1:
			cm = charging.Model{EtaSingle: 0.8, Gain: charging.Sublinear(0.9)}
		case 2:
			// Counts past the cap share one efficiency, so some bases
			// differ from the child only in counts.
			cm = charging.Model{EtaSingle: 0.9, Gain: charging.Saturating(2 + n%3)}
		}
		side := 50 * math.Sqrt(float64(n))
		p, err := GenerateProblem(rand.New(rand.NewSource(probSeed)), GenSpec{
			Field:    geom.Field{Width: side, Height: side},
			Posts:    n,
			Nodes:    nodes,
			Charging: cm,
		})
		if err != nil {
			t.Skip(err)
		}
		if variant%2 == 1 {
			p.RoundOverhead = 40
		}
		oracle, err := NewCostEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := NewIncrementalEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		eff := func(m int) float64 {
			e, err := p.Charging.NetworkEfficiency(m)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}

		rng := rand.New(rand.NewSource(seed))
		lower := make([]float64, n+1)
		order := make([]int, n)
		child := make([]int, n)
		parent := make([]int, n)
		base := make([]int, n)
		var moves []Move
		for trial := 0; trial < 6; trial++ {
			// child: every post >= 1, the spare nodes scattered so that
			// sum(child) <= nodes; parent: child plus random extra nodes.
			for i := range child {
				child[i] = 1
			}
			for k := rng.Intn(nodes - n + 1); k > 0; k-- {
				child[rng.Intn(n)]++
			}
			for i := range parent {
				parent[i] = child[i]
				if rng.Intn(2) == 0 {
					parent[i] += rng.Intn(nodes)
				}
			}
			if _, err := inc.Cost(parent); err != nil {
				t.Fatal(err)
			}
			if err := inc.CommittedDistances(lower, order); err != nil {
				t.Fatal(err)
			}
			exact, err := oracle.MinCost(child)
			if err != nil {
				t.Fatal(err)
			}
			bound, pruned, err := inc.RelaxedBound(lower, order, child, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if pruned {
				t.Fatalf("trial %d: pruned at an infinite limit", trial)
			}
			if bound > exact {
				t.Fatalf("trial %d: relaxed bound %v exceeds MinCost %v (child %v, parent %v)", trial, bound, exact, child, parent)
			}

			limits := []float64{
				bound - 2*boundedSlack, bound - 3*boundedSlack, bound - boundedSlack,
				exact - 2*boundedSlack, exact - 3*boundedSlack, exact - boundedSlack/2, exact,
				(bound + exact) / 2, exact / 2,
			}
			for _, limit := range limits {
				_, cert, err := inc.RelaxedBound(lower, order, child, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !cert {
					continue
				}
				// Bases: the parent, and random deployments.
				for b := 0; b < 4; b++ {
					if b == 0 {
						copy(base, parent)
					} else {
						for i := range base {
							base[i] = 1 + rng.Intn(nodes)
						}
					}
					moves = moves[:0]
					sameEffs := true
					for i := range base {
						if base[i] != child[i] {
							moves = append(moves, Move{Post: i, Delta: child[i] - base[i]})
						}
						if eff(base[i]) != eff(child[i]) {
							sameEffs = false
						}
					}
					if sameEffs {
						continue
					}
					if _, err := probe.Cost(base); err != nil {
						t.Fatal(err)
					}
					cost, abandoned, err := probe.CostDeltaBounded(moves, limit)
					if err != nil {
						t.Fatal(err)
					}
					if !abandoned {
						t.Fatalf("trial %d: certificate pruned at limit %v but CostDeltaBounded from base %v completed at %v (child %v, parent %v)",
							trial, limit, base, cost, child, parent)
					}
				}
			}
		}
	})
}
