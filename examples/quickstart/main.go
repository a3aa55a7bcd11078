// Quickstart: generate a random monitoring field, jointly optimise node
// deployment and routing with the paper's two heuristics, and compare
// against a charging-oblivious baseline (uniform deployment + minimum-
// energy routing) to show what wireless-charging-aware design buys.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"wrsn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// A 500x500m field monitored through 60 posts with a budget of 300
	// sensor nodes; the base station sits at the lower-left corner.
	field := wrsn.Square(500)
	rng := rand.New(rand.NewSource(7))
	var p *wrsn.Problem
	for {
		p = &wrsn.Problem{
			Posts:    field.RandomPoints(rng, 60),
			BS:       field.Corner(),
			Nodes:    300,
			Energy:   wrsn.DefaultEnergyModel(),
			Charging: wrsn.DefaultChargingModel(),
		}
		if err := p.Validate(); err == nil {
			break // connected at maximum transmission range
		}
	}
	fmt.Printf("problem: %d posts, %d nodes, field %.0fx%.0fm, %d power levels (max range %.0fm)\n\n",
		p.N(), p.Nodes, field.Width, field.Height, p.Energy.Levels(), p.Energy.MaxRange())

	// Charging-oblivious baseline: spread nodes uniformly, route for
	// minimum network energy, ignore charging efficiency entirely.
	baseline, err := chargingObliviousBaseline(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10.3f µJ per reporting round\n", "uniform + min-energy routes:", baseline/1000)

	ctx := context.Background()
	// The paper's Routing-First Heuristic (7 iterations).
	rfh, err := wrsn.SolveRFH(ctx, p, wrsn.RFHOptions{Iterations: wrsn.DefaultRFHIterations})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10.3f µJ  (%.1f%% of baseline)\n", "iterative RFH:", rfh.Cost/1000, rfh.Cost/baseline*100)

	// The Incremental Deployment-Based heuristic (slower, cheaper).
	idb, err := wrsn.SolveIDB(ctx, p, wrsn.IDBOptions{Delta: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10.3f µJ  (%.1f%% of baseline)\n\n", "IDB (δ=1):", idb.Cost/1000, idb.Cost/baseline*100)

	// Where did the nodes go? Show the five busiest posts.
	sizes := idb.Tree.SubtreeSizes(p)
	fmt.Println("busiest posts under IDB (workload concentration in action):")
	for rank := 0; rank < 5; rank++ {
		best := -1
		for i := range sizes {
			if best < 0 || sizes[i] > sizes[best] {
				best = i
			}
		}
		fmt.Printf("  post %3d at %v: subtree %3d posts, %2d nodes deployed\n",
			best, p.Posts[best], sizes[best], idb.Deploy[best])
		sizes[best] = -1
	}
}

// chargingObliviousBaseline deploys nodes uniformly and routes along
// minimum-energy paths, the classic design that predates wireless
// charging awareness.
func chargingObliviousBaseline(p *wrsn.Problem) (float64, error) {
	deploy, err := wrsn.UniformDeployment(p.N(), p.Nodes)
	if err != nil {
		return 0, err
	}
	tree, err := wrsn.MinEnergyTree(p)
	if err != nil {
		return 0, err
	}
	return wrsn.Evaluate(p, deploy, tree)
}
