package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "engine.Run", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50); one reaching past the
		// parent's end covers [90, 100) of it.
		{ID: 2, Parent: 1, Name: "solver.idb", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "solver.idb", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "engine.gen", Start: 90 * ms, End: 120 * ms},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 3, Name: "model.probe", Start: 25 * ms, End: 35 * ms},
	}
	st := selfTimes(spans)
	want := map[string]layerTime{
		"engine.Run":  {Count: 1, Total: 100 * ms, Self: 50 * ms},
		"solver.idb":  {Count: 2, Total: 50 * ms, Self: 40 * ms},
		"engine.gen":  {Count: 1, Total: 30 * ms, Self: 30 * ms},
		"model.probe": {Count: 1, Total: 10 * ms, Self: 10 * ms},
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.add(0, 0, 0, "x", time.Now(), time.Now()); id != 0 || r.id() != 0 {
		t.Fatalf("nil recorder handed out ids")
	}
}

func TestRecorderParentsChildrenUnderReservedID(t *testing.T) {
	r := newRecorder()
	parent := r.id()
	t0 := r.origin
	r.add(0, parent, 7, "client.http", t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	r.add(parent, 0, 7, "serve", t0, t0.Add(4*time.Millisecond))
	st := selfTimes(r.spans)
	if got := st["serve"].Self; got != 2*time.Millisecond {
		t.Fatalf("serve self time = %v, want 2ms", got)
	}
}
