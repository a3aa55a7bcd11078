// Mobile-charger: solve a network with the paper's heuristic, then
// actually *run* it — batteries, duty rotation, hop-by-hop forwarding and
// a mobile wireless charger driving between posts — and check that the
// measured charger energy per delivered round converges to the analytic
// recharging cost the optimiser promised.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"wrsn"
	"wrsn/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mobile-charger: ")

	field := wrsn.Square(300)
	rng := rand.New(rand.NewSource(11))
	var p *wrsn.Problem
	for {
		p = &wrsn.Problem{
			Posts:    field.RandomPoints(rng, 25),
			BS:       field.Corner(),
			Nodes:    100,
			Energy:   wrsn.DefaultEnergyModel(),
			Charging: wrsn.DefaultChargingModel(),
		}
		if err := p.Validate(); err == nil {
			break
		}
	}
	ctx := context.Background()
	res, err := wrsn.SolveRFH(ctx, p, wrsn.RFHOptions{Iterations: wrsn.DefaultRFHIterations})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned: %d posts, %d nodes, analytic recharging cost %.3f µJ per round\n",
		p.N(), p.Nodes, res.Cost/1000)

	s, err := sim.New(sim.Config{
		Problem:  p,
		Solution: res.Solution,
		Charger: &sim.ChargerConfig{
			PowerPerRound: 5e7, // 50 mJ/round dissemination while parked
			SpeedPerRound: 25,  // 25 m/round travel
			FillToFrac:    0.95,
			TargetFrac:    0.80,
		},
		PacketBits:        1000,
		InitialChargeFrac: 0.9,
		Seed:              1,
	})
	if err != nil {
		log.Fatal(err)
	}

	const rounds = 20000
	metrics, err := s.Run(rounds)
	if err != nil {
		log.Fatal(err)
	}
	analytic, err := s.AnalyticCostPerBitRound()
	if err != nil {
		log.Fatal(err)
	}
	empirical := metrics.EmpiricalCostPerBitRound(1000)

	fmt.Printf("\nafter %d reporting rounds:\n", metrics.Rounds)
	fmt.Printf("  reports delivered:   %d (%.2f%% delivery)\n", metrics.ReportsDelivered, metrics.DeliveryRatio()*100)
	fmt.Printf("  network consumed:    %.2f mJ\n", metrics.NetworkEnergy/1e6)
	fmt.Printf("  charger disseminated:%.2f mJ over %d visits, %.0f m driven\n",
		metrics.ChargerEnergy/1e6, metrics.ChargerVisits, metrics.ChargerDistance)
	fmt.Printf("  empirical cost:      %.3f nJ per bit-round\n", empirical)
	fmt.Printf("  analytic cost:       %.3f nJ per bit-round\n", analytic)
	fmt.Printf("  deviation:           %.2f%%\n", (empirical/analytic-1)*100)

	// And the contrast: the same network with no charger dies.
	dead, err := sim.New(sim.Config{Problem: p, Solution: res.Solution, PacketBits: 1000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dm, err := dead.Run(3 * sim.DefaultBatteryRounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout the charger the first report is lost at round %d; delivery over the run drops to %.1f%%\n",
		dm.FirstLossRound, dm.DeliveryRatio()*100)
}
