package sim_test

import (
	"context"
	"fmt"
	"math/rand"

	"wrsn"
	"wrsn/internal/sim"
)

// Example runs a solved network for a thousand reporting rounds with a
// tour-driving charger and prints the delivery outcome.
func Example() {
	rng := rand.New(rand.NewSource(4))
	p, err := wrsn.GenerateProblem(rng, wrsn.GenSpec{
		Field: wrsn.Square(200),
		Posts: 10,
		Nodes: 40,
	})
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	res, err := wrsn.SolveRFH(context.Background(), p, wrsn.RFHOptions{Iterations: wrsn.DefaultRFHIterations})
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	s, err := sim.New(sim.Config{
		Problem:  p,
		Solution: res.Solution,
		Charger: &sim.ChargerConfig{
			PowerPerRound: 1e8,
			SpeedPerRound: 50,
			Policy:        sim.PolicyTour,
		},
		Seed: 1,
	})
	if err != nil {
		fmt.Println("sim:", err)
		return
	}
	m, err := s.Run(1000)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("delivery: %.0f%%, reports lost: %d\n", m.DeliveryRatio()*100, m.ReportsLost)
	// Output:
	// delivery: 100%, reports lost: 0
}
