package main

import (
	"testing"

	"wrsn/internal/model"
	"wrsn/internal/solver"
)

func TestCheckOptimalAllowsOnlyRoundingAboveAHeuristic(t *testing.T) {
	d := sweepDef{id: "t", points: []pointSpec{{}}, seeds: 1, solvers: []string{"optimal", "idb"}}
	cell := func(cost float64) cellOut { return cellOut{res: &solver.Result{Solution: model.Solution{Cost: cost}}} }
	for _, tc := range []struct {
		opt, idb float64
		flagged  bool
	}{
		{opt: 100, idb: 101, flagged: false},
		{opt: 100, idb: 100, flagged: false},
		{opt: 100 + 1e-8, idb: 100, flagged: false}, // within 1e-9 relative
		{opt: 100 + 1e-6, idb: 100, flagged: true},
	} {
		outs := [][][]cellOut{{{cell(tc.opt)}}, {{cell(tc.idb)}}}
		if got := len(checkOptimal(d, outs)) > 0; got != tc.flagged {
			t.Errorf("optimal %v vs idb %v: flagged %v, want %v", tc.opt, tc.idb, got, tc.flagged)
		}
		if outs[0][0][0].wrong != tc.flagged || outs[1][0][0].wrong {
			t.Errorf("optimal %v vs idb %v: cells marked wrong %v/%v, want %v/false",
				tc.opt, tc.idb, outs[0][0][0].wrong, outs[1][0][0].wrong, tc.flagged)
		}
	}
}
