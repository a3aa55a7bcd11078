// Perimeter-watch: heterogeneous traffic and sensing overhead in action.
// A facility is ringed by high-rate intrusion-detection posts (5 reports
// per round, always-on radar: heavy sensing overhead) with sparse
// low-rate environmental posts inside (1 report per round). The example
// shows how the optimiser shifts nodes toward the heavy perimeter funnel
// compared to treating all posts equally — the ReportRates/RoundOverhead
// extensions of this library beyond the paper's uniform model.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"wrsn"
	"wrsn/internal/render"
)

const (
	fieldSide      = 300.0
	perimeterPosts = 16
	interiorPosts  = 12
	numNodes       = 140
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perimeter-watch: ")

	p, isPerimeter := buildFacility(9)
	fmt.Printf("facility: %d perimeter posts (rate 5) + %d interior posts (rate 1), %d nodes\n\n",
		perimeterPosts, interiorPosts, p.Nodes)

	// Plan twice: once ignoring the traffic profile (uniform rates), once
	// with the real heterogeneous rates.
	naive := *p
	naive.ReportRates = nil
	ctx := context.Background()
	naiveRes, err := wrsn.SolveIDB(ctx, &naive, wrsn.IDBOptions{Delta: 1})
	if err != nil {
		log.Fatal(err)
	}
	awareRes, err := wrsn.SolveIDB(ctx, p, wrsn.IDBOptions{Delta: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Price both plans under the TRUE traffic.
	naiveCost, err := wrsn.Evaluate(p, naiveRes.Deploy, naiveRes.Tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %8.3f µJ per reporting round\n", "rate-oblivious plan (true traffic):", naiveCost/1000)
	fmt.Printf("%-34s %8.3f µJ  (%.1f%% saved)\n\n", "rate-aware plan:", awareRes.Cost/1000,
		(1-awareRes.Cost/naiveCost)*100)

	// Where did the extra nodes go? Compare average nodes per post class.
	fmt.Println("average nodes per post:")
	for _, class := range []struct {
		name      string
		perimeter bool
	}{{"perimeter (rate 5)", true}, {"interior (rate 1)", false}} {
		fmt.Printf("  %-20s naive %.2f -> aware %.2f\n", class.name,
			meanNodes(naiveRes.Deploy, isPerimeter, class.perimeter),
			meanNodes(awareRes.Deploy, isPerimeter, class.perimeter))
	}

	// The busiest funnel posts under the aware plan.
	loads := awareRes.Tree.SubtreeLoads(p)
	type post struct {
		idx  int
		load float64
	}
	ranked := make([]post, p.N())
	for i := range ranked {
		ranked[i] = post{i, loads[i]}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].load > ranked[b].load })
	fmt.Println("\nheaviest funnel posts (aware plan):")
	for _, r := range ranked[:4] {
		kind := "interior"
		if isPerimeter[r.idx] {
			kind = "perimeter"
		}
		fmt.Printf("  post %2d (%s): carries %.1f bits/round with %d nodes\n",
			r.idx, kind, r.load, awareRes.Deploy[r.idx])
	}

	fieldMap, err := render.FieldMap(p, awareRes.Deploy, 56)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(fieldMap)
}

// buildFacility rings perimeterPosts around the field centre with
// interiorPosts scattered inside, the base station at the gate (bottom
// centre). Perimeter posts report at rate 5 with sensing overhead.
func buildFacility(seed int64) (*wrsn.Problem, []bool) {
	rng := rand.New(rand.NewSource(seed))
	center := wrsn.Point{X: fieldSide / 2, Y: fieldSide / 2}
	for {
		posts := make([]wrsn.Point, 0, perimeterPosts+interiorPosts)
		rates := make([]float64, 0, cap(posts))
		isPerimeter := make([]bool, 0, cap(posts))
		for i := 0; i < perimeterPosts; i++ {
			angle := 2 * math.Pi * float64(i) / perimeterPosts
			radius := fieldSide * 0.42
			posts = append(posts, wrsn.Point{
				X: center.X + radius*math.Cos(angle),
				Y: center.Y + radius*math.Sin(angle),
			})
			rates = append(rates, 5)
			isPerimeter = append(isPerimeter, true)
		}
		for i := 0; i < interiorPosts; i++ {
			posts = append(posts, wrsn.Point{
				X: center.X + (rng.Float64()-0.5)*fieldSide*0.5,
				Y: center.Y + (rng.Float64()-0.5)*fieldSide*0.5,
			})
			rates = append(rates, 1)
			isPerimeter = append(isPerimeter, false)
		}
		p := &wrsn.Problem{
			Posts:         posts,
			BS:            wrsn.Point{X: fieldSide / 2, Y: 0},
			Nodes:         numNodes,
			Energy:        wrsn.DefaultEnergyModel(),
			Charging:      wrsn.DefaultChargingModel(),
			ReportRates:   rates,
			RoundOverhead: 10, // always-on sensing, nJ per bit-round
		}
		if p.Validate() == nil {
			return p, isPerimeter
		}
	}
}

// meanNodes averages the deployment over one post class.
func meanNodes(deploy wrsn.Deployment, isPerimeter []bool, perimeter bool) float64 {
	total, count := 0, 0
	for i, m := range deploy {
		if isPerimeter[i] == perimeter {
			total += m
			count++
		}
	}
	return float64(total) / float64(count)
}
