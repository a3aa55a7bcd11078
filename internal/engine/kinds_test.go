package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
	"wrsn/internal/solver"
)

// TestRegistryKindCoverage runs every registered solver against one
// instance of every problem family: a solver must either solve the
// instance (matching its declared kinds) or reject it with a typed
// UnsupportedError — never panic, hang, or mis-solve. This is the
// registry-level contract behind -list-solvers: the declared kind list
// and the SolveFunc's actual behaviour cannot drift apart. Every
// accepted pair's cost bits and evaluation count are pinned as well, so
// a refactor of the solvers' entry points cannot silently change a
// result or its work accounting.
func TestRegistryKindCoverage(t *testing.T) {
	deployment, err := testProblem(rand.New(rand.NewSource(17)), 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	place, err := placement.Generate(rand.New(rand.NewSource(17)), placement.GenSpec{
		Field:        geom.Square(200),
		Posts:        10,
		Sites:        placement.DefaultSiteSpec(),
		DemandMean:   1.0,
		DemandJitter: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	instances := map[string]model.Instance{
		model.KindDeployment: deployment,
		model.KindPlacement:  place,
	}

	type pinKey struct{ solver, kind string }
	type pin struct {
		costBits    uint64
		evaluations int64
	}
	pins := map[pinKey]pin{
		{"anneal", model.KindDeployment}:           {0x40752ae800000000, 823},
		{"anneal", model.KindPlacement}:            {0x4000000000000000, 1335},
		{"auto", model.KindDeployment}:             {0x40752ae800000000, 83},
		{"auto", model.KindPlacement}:              {0x4000000000000000, 96},
		{"greedy", model.KindPlacement}:            {0x4000000000000000, 51},
		{"idb", model.KindDeployment}:              {0x40752ae800000000, 36},
		{"idb", model.KindPlacement}:               {0x4000000000000000, 48},
		{"idb-local-search", model.KindDeployment}: {0x40752ae800000000, 20},
		{"idb-local-search", model.KindPlacement}:  {0x4000000000000000, 48},
		{"idb-parallel", model.KindDeployment}:     {0x40752ae800000000, 36},
		{"idb-parallel", model.KindPlacement}:      {0x4000000000000000, 48},
		{"local-search", model.KindDeployment}:     {0x40752ae800000000, 26},
		{"local-search", model.KindPlacement}:      {0x4000000000000000, 83},
		{"optimal", model.KindDeployment}:          {0x40752ae800000000, 83},
		{"rfh", model.KindDeployment}:              {0x40754bc555555555, 7},
		{"rfh-iterative", model.KindDeployment}:    {0x40754bc555555555, 49},
	}

	infos := Infos()
	if len(infos) == 0 {
		t.Fatal("registry is empty")
	}
	for _, info := range infos {
		accepts := map[string]bool{}
		for _, k := range info.Kinds {
			if _, known := instances[k]; !known {
				t.Errorf("solver %q declares unknown kind %q", info.Name, k)
			}
			accepts[k] = true
		}
		fn := MustSolver(info.Name)
		for kind, inst := range instances {
			res, err := fn(context.Background(), inst)
			if !accepts[kind] {
				if err == nil {
					t.Errorf("solver %q accepted undeclared kind %q", info.Name, kind)
				} else if !errors.Is(err, solver.ErrUnsupportedInstance) {
					t.Errorf("solver %q rejected kind %q with untyped error: %v", info.Name, kind, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("solver %q failed on declared kind %q: %v", info.Name, kind, err)
				continue
			}
			if math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) || res.Cost < 0 {
				t.Errorf("solver %q on %q returned cost %g", info.Name, kind, res.Cost)
			}
			want, pinned := pins[pinKey{info.Name, kind}]
			if !pinned {
				t.Errorf("solver %q on %q has no pinned result", info.Name, kind)
			} else if got := math.Float64bits(res.Cost); got != want.costBits || res.Evaluations != want.evaluations {
				t.Errorf("solver %q on %q: cost bits %#x, %d evaluations; pinned %#x, %d",
					info.Name, kind, got, res.Evaluations, want.costBits, want.evaluations)
			}
			switch kind {
			case model.KindDeployment:
				if err := model.Deployment(res.Deploy).Validate(deployment); err != nil {
					t.Errorf("solver %q returned invalid deployment: %v", info.Name, err)
				}
			default:
				if err := inst.ValidateSolution(res.Vector); err != nil {
					t.Errorf("solver %q returned invalid %q solution %v: %v", info.Name, kind, res.Vector, err)
				}
			}
		}
	}
}
