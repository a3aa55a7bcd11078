package solver

import (
	"context"
	"math"
	"slices"
	"testing"
)

// TestOptimalEvaluationsPinned pins Optimal's search, not just its
// answer: the exact cost bits, the deployment and the completed
// evaluation count on Fig. 7b shapes (200 m field, 36 nodes, 8–10 posts,
// seeds 1–3) and on the small shapes the daemon's auto solver routes to
// the exact tier (60·√N m field, N/M = 6/18, 7/14, 7/21, 8/16, 9/18).
// Served plans carry the evaluation count, so a change that prunes the
// same tree more cheaply must leave all three untouched; a bound that
// prunes a different tree changes the count and must re-record it here
// on purpose.
func TestOptimalEvaluationsPinned(t *testing.T) {
	cases := []struct {
		seed         int64
		side         float64
		posts, nodes int
		cost         uint64
		deploy       []int
		evals        int64
	}{
		{seed: 1, side: 200, posts: 8, nodes: 36, cost: 0x40770e1955555556, deploy: []int{3, 3, 5, 2, 10, 2, 3, 8}, evals: 43651},
		{seed: 2, side: 200, posts: 8, nodes: 36, cost: 0x4076bbc896b7f723, deploy: []int{11, 3, 3, 7, 4, 3, 2, 3}, evals: 17959},
		{seed: 3, side: 200, posts: 8, nodes: 36, cost: 0x4081c1d8aaaaaaab, deploy: []int{8, 4, 2, 4, 2, 2, 8, 6}, evals: 17899},
		{seed: 1, side: 200, posts: 9, nodes: 36, cost: 0x407b173e79e79e7a, deploy: []int{3, 3, 5, 2, 10, 2, 2, 7, 2}, evals: 68049},
		{seed: 2, side: 200, posts: 9, nodes: 36, cost: 0x4081b079a69a69a7, deploy: []int{2, 2, 5, 2, 2, 7, 2, 9, 5}, evals: 22562},
		{seed: 3, side: 200, posts: 9, nodes: 36, cost: 0x4081c40438e38e39, deploy: []int{3, 2, 2, 2, 6, 2, 9, 2, 8}, evals: 50611},
		{seed: 1, side: 200, posts: 10, nodes: 36, cost: 0x4081b78e38e38e39, deploy: []int{2, 4, 4, 2, 9, 2, 2, 7, 2, 2}, evals: 78495},
		{seed: 2, side: 200, posts: 10, nodes: 36, cost: 0x40835a5534d34d35, deploy: []int{2, 4, 2, 2, 7, 2, 9, 4, 2, 2}, evals: 117150},
		{seed: 3, side: 200, posts: 10, nodes: 36, cost: 0x4084445400000000, deploy: []int{2, 5, 2, 8, 2, 7, 2, 2, 4, 2}, evals: 40991},
		{seed: 1, posts: 6, nodes: 18, cost: 0x407462b000000000, deploy: []int{2, 2, 5, 2, 5, 2}, evals: 131},
		{seed: 1, posts: 7, nodes: 14, cost: 0x4081122eaaaaaaaa, deploy: []int{1, 2, 3, 1, 2, 1, 4}, evals: 84},
		{seed: 1, posts: 7, nodes: 21, cost: 0x4076678000000000, deploy: []int{2, 2, 5, 2, 2, 2, 6}, evals: 596},
		{seed: 1, posts: 8, nodes: 16, cost: 0x4084dbf555555555, deploy: []int{2, 2, 3, 1, 1, 1, 5, 1}, evals: 738},
		{seed: 1, posts: 9, nodes: 18, cost: 0x408759e000000000, deploy: []int{1, 2, 1, 1, 2, 2, 1, 3, 5}, evals: 1774},
	}
	for _, tc := range cases {
		side := tc.side
		if side == 0 {
			side = 60 * math.Sqrt(float64(tc.posts))
		}
		p := randomProblem(t, tc.seed, side, tc.posts, tc.nodes)
		res, err := Optimal(context.Background(), p, OptimalOptions{})
		if err != nil {
			t.Fatalf("seed %d, %d posts, %d nodes: %v", tc.seed, tc.posts, tc.nodes, err)
		}
		if got := math.Float64bits(res.Cost); got != tc.cost {
			t.Errorf("seed %d, %d posts, %d nodes: cost bits %#x (%v), recorded %#x (%v)",
				tc.seed, tc.posts, tc.nodes, got, res.Cost, tc.cost, math.Float64frombits(tc.cost))
		}
		if !slices.Equal([]int(res.Deploy), tc.deploy) {
			t.Errorf("seed %d, %d posts, %d nodes: deployment %v, recorded %v", tc.seed, tc.posts, tc.nodes, res.Deploy, tc.deploy)
		}
		if res.Evaluations != tc.evals {
			t.Errorf("seed %d, %d posts, %d nodes: %d evaluations, recorded %d", tc.seed, tc.posts, tc.nodes, res.Evaluations, tc.evals)
		}
	}
}
