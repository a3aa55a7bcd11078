package solver

import (
	"context"
	"errors"
	"testing"
	"time"
)

// cancelMidRun starts solve on a background goroutine, cancels its
// context shortly after, and asserts the solver unwinds with
// context.Canceled well within the given deadline.
func cancelMidRun(t *testing.T, name string, deadline time.Duration, solve func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- solve(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	case <-time.After(deadline):
		t.Fatalf("%s: did not stop within %v of cancellation", name, deadline)
	}
}

// TestOptimalCtxCancelsMidSearch aborts the branch-and-bound mid-run:
// the instance is big enough that the full search takes far longer than
// the cancellation window.
func TestOptimalCtxCancelsMidSearch(t *testing.T) {
	p := randomProblem(t, 501, 200, 12, 44)
	cancelMidRun(t, "Optimal", 10*time.Second, func(ctx context.Context) error {
		_, err := Optimal(ctx, p, OptimalOptions{})
		return err
	})
}

// TestIDBCtxCancelsMidRun aborts IDB's incremental rounds mid-run. The
// instance must run far longer than the cancellation sleep even on a
// loaded machine, so it is sized well past the paper scale.
func TestIDBCtxCancelsMidRun(t *testing.T) {
	p := randomProblem(t, 502, 400, 120, 3000)
	cancelMidRun(t, "IDB", 10*time.Second, func(ctx context.Context) error {
		_, err := IDB(ctx, p, IDBOptions{Delta: 1})
		return err
	})
}

// TestIDBParallelCtxCancelsMidRun aborts the parallel candidate pool.
func TestIDBParallelCtxCancelsMidRun(t *testing.T) {
	p := randomProblem(t, 503, 400, 120, 3000)
	cancelMidRun(t, "IDB (4 workers)", 10*time.Second, func(ctx context.Context) error {
		_, err := IDB(ctx, p, IDBOptions{Delta: 1, Workers: 4})
		return err
	})
}

// TestRFHCtxCancelsBetweenRounds: RFH checks its context at every round
// boundary (a whole round is fast, so mid-run interception is flaky to
// stage; a pre-cancelled context exercises the same check).
func TestRFHCtxCancelsBetweenRounds(t *testing.T) {
	p := randomProblem(t, 504, 200, 8, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RFH(ctx, p, RFHOptions{Iterations: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RFH: want context.Canceled, got %v", err)
	}
}

// TestDeadlineExceededPropagates: an exceeded per-call timeout surfaces
// as context.DeadlineExceeded. The deadline is allowed to expire before
// the call so the test does not depend on how fast the solver clears a
// particular instance.
func TestDeadlineExceededPropagates(t *testing.T) {
	p := randomProblem(t, 506, 400, 60, 420)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err := IDB(ctx, p, IDBOptions{Delta: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// flipCtx is a context whose Err is nil for its first ok calls and
// context.DeadlineExceeded from then on: a deadline expiring at an exact,
// machine-independent point inside a solver.
type flipCtx struct {
	context.Context
	ok, calls int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.ok {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRFHHonoursDeadlineInsideRound: basic RFH runs a single round, so a
// deadline that expires inside it must still surface as
// context.DeadlineExceeded rather than a late result. The sweep moves
// the expiry across every check RFH makes: each one must be honoured,
// and the run that first succeeds must have seen only nil errors.
func TestRFHHonoursDeadlineInsideRound(t *testing.T) {
	p := randomProblem(t, 504, 200, 8, 20)
	for ok := 1; ; ok++ {
		ctx := &flipCtx{Context: context.Background(), ok: ok}
		res, err := RFH(ctx, p, RFHOptions{Iterations: 1})
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) || res != nil {
				t.Fatalf("expiry after %d checks: got (%v, %v), want (nil, context.DeadlineExceeded)", ok, res, err)
			}
			continue
		}
		if ok == 1 {
			t.Fatal("RFH returned a result although the deadline expired after its first context check")
		}
		if ctx.calls != ok {
			t.Fatalf("RFH returned a result after %d context checks, %d of them past the deadline", ctx.calls, ctx.calls-ok)
		}
		return
	}
}
