package wrsn_test

import (
	"context"
	"fmt"

	"wrsn"
)

// fixedProblem builds a small deterministic instance: four posts on a
// line, 30m apart, marching away from the base station at the origin.
func fixedProblem() *wrsn.Problem {
	return &wrsn.Problem{
		Posts: []wrsn.Point{
			{X: 30, Y: 0}, {X: 60, Y: 0}, {X: 90, Y: 0}, {X: 120, Y: 0},
		},
		BS:       wrsn.Point{},
		Nodes:    12,
		Energy:   wrsn.DefaultEnergyModel(),
		Charging: wrsn.DefaultChargingModel(),
	}
}

// ExampleSolveRFH plans deployment and routing for a small line
// network: with receive energy priced in,
// post 1 (60m out) uplinks straight to the base station and carries the
// tail of the line, so it receives the most nodes.
func ExampleSolveRFH() {
	p := fixedProblem()
	res, err := wrsn.SolveRFH(context.Background(), p, wrsn.RFHOptions{Iterations: wrsn.DefaultRFHIterations})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("nodes per post: %v\n", res.Deploy)
	fmt.Printf("cost: %.2f nJ per bit-round\n", res.Cost)
	// Output:
	// nodes per post: [2 5 2 3]
	// cost: 163.18 nJ per bit-round
}

// ExampleEvaluate prices explicit plans on the min-energy baseline tree
// (where posts 0 and 1 both uplink directly, splitting the load): a
// uniform deployment beats naive concentration on post 0 here — matching
// node placement to the actual workload is what the solvers are for.
func ExampleEvaluate() {
	p := fixedProblem()
	tree, err := wrsn.MinEnergyTree(p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	uniform, _ := wrsn.UniformDeployment(p.N(), p.Nodes)
	uniformCost, _ := wrsn.Evaluate(p, uniform, tree)
	concentrated := wrsn.Deployment{5, 3, 2, 2}
	concentratedCost, _ := wrsn.Evaluate(p, concentrated, tree)
	fmt.Printf("uniform:      %.2f nJ\n", uniformCost)
	fmt.Printf("concentrated: %.2f nJ\n", concentratedCost)
	// Output:
	// uniform:      193.59 nJ
	// concentrated: 201.80 nJ
}

// ExampleBestTreeFor recovers the optimal routing for a fixed deployment:
// one Dijkstra under recharging-cost weights.
func ExampleBestTreeFor() {
	p := fixedProblem()
	deploy := wrsn.Deployment{6, 2, 2, 2}
	tree, cost, err := wrsn.BestTreeFor(p, deploy)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("parents: %v (4 = base station)\n", tree.Parent)
	fmt.Printf("cost: %.2f nJ per bit-round\n", cost)
	// Output:
	// parents: [4 4 0 1] (4 = base station)
	// cost: 234.97 nJ per bit-round
}
