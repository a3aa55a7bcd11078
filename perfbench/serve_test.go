package main

import (
	"testing"
	"time"
)

// A stalled first request must delay the ones queued behind it, and that
// wait must count in their latency: the open loop times each request
// from when it was due, not from when a sender got to it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n        = 10
		rate     = 100 // one request every 10ms
		stall    = 60 * time.Millisecond
		interval = 10 * time.Millisecond
	)
	schedule := make([]*request, n)
	first := true
	samples := openLoop(schedule, rate, 1, func(*sample) {
		if first {
			first = false
			time.Sleep(stall)
		}
	})
	for i, s := range samples {
		if got := s.due.Sub(samples[0].due); got != time.Duration(i)*interval {
			t.Fatalf("request %d due at +%v, want +%v", i, got, time.Duration(i)*interval)
		}
		if s.lag > 20*time.Millisecond {
			t.Errorf("generator handed request %d over %v late: the stall blocked the schedule", i, s.lag)
		}
	}
	// Request 1 was due 10ms in but could not be sent before request 0
	// finished at ~60ms.
	if wait := samples[1].sent.Sub(samples[1].due); wait < stall-interval-5*time.Millisecond {
		t.Errorf("request 1 waited %v behind the stall, want about %v", wait, stall-interval)
	}
	lat, _, _ := latencies(&phase{samples: samples}, make([]servedOut, n))
	if lat[1] < stall-interval-5*time.Millisecond {
		t.Errorf("request 1 latency %v excludes its wait behind the stall", lat[1])
	}
}

func TestLatenciesCountFailuresAsMissingTheLimit(t *testing.T) {
	t0 := time.Now()
	ph := &phase{samples: []sample{
		{due: t0, sent: t0, done: t0.Add(time.Millisecond)},               // ok, in limit
		{due: t0, sent: t0.Add(serveLimit), done: t0.Add(serveLimit + 1)}, // ok, waited past the limit
		{due: t0, sent: t0, done: t0.Add(time.Millisecond)},               // failed, fast
		{due: t0, sent: t0, done: t0.Add(serveLimit)},                     // ok, exactly at the limit
	}}
	checked := []servedOut{{ok: true}, {ok: true}, {ok: false}, {ok: true}}
	lat, ok, in := latencies(ph, checked)
	if ok != 3 || in != 2 {
		t.Fatalf("ok=%d in-limit=%d, want 3 and 2", ok, in)
	}
	if lat[1] != serveLimit+1 {
		t.Fatalf("latency of a request sent late = %v, want it timed from due: %v", lat[1], serveLimit+1)
	}
}
