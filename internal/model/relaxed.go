package model

import (
	"fmt"
	"math"
)

// Relaxed bounds: a settle-free prune certificate for branch-and-bound.
//
// Branch-and-bound probes an admissible bound vector at every search
// node, and a child's bound vector is componentwise at most its parent's
// (it fixes one more post and lowers every undecided post's count).
// Fewer nodes never raise a post's efficiency, IEEE division and
// addition are monotone, and the scan-min settle computes each distance
// as the minimum over the same per-path float sums, so every distance of
// the parent's completed probe is a lower bound on the child's. One
// Gauss–Seidel round over the CSR out-edges under the child's weights,
//
//	d[u] = max(d[u], min_v d[v] + (tx(u,v)/eff(m_u) + rx/eff(m_v))),
//
// keeps every entry a lower bound (each candidate is the settle's float
// expression with operands no larger than the settle's), and summing
// rates[u]·d[u] plus the overhead in totalCost's order yields a lower
// bound on the child's cost in O(E), with no reweight, snapshot or
// rollback. The relaxation prices weights by multiplying with the float
// just below 1/eff(m) instead of dividing by eff(m): each product is
// then at most the settle's quotient, so candidates stay lower bounds,
// and the evaluator keeps one reciprocal per node count, not a weight
// table.
//
// The certificate prunes only at limit+2·boundedSlack. CostDeltaBounded
// abandons a probe once its partial-settle bound reaches limit +
// boundedSlack, and at the last post's extraction that bound is the
// exact cost up to float reordering (~n·eps of the cost, far below
// boundedSlack), so any probe whose exact cost reaches limit +
// 2·boundedSlack is one the settle abandons too. A certified prune
// therefore stands in for a settle that would have pruned, and a search
// that consults the certificate first visits the same nodes with the
// same completed-evaluation count. The one settle-free completion —
// a probe that changes no efficiency, priced from the standing solution
// — has the committed cost, which a search only holds below its limit
// plus boundedSlack, so it never reaches the certificate's threshold.

// CommittedDistances copies the committed shortest recharging distances
// (n posts, then the BS at 0) into dist, which must hold n+1 entries,
// and the posts in ascending distance order (ties by index) into order,
// which must hold n: the order RelaxedBound relaxes them in, so an
// increase reaches every post after the posts its committed route runs
// through.
func (ev *IncrementalEvaluator) CommittedDistances(dist []float64, order []int) error {
	if !ev.have {
		return errNoBase
	}
	if ev.state != stateIdle {
		return errPendingProbe
	}
	if len(dist) != ev.n+1 || len(order) != ev.n {
		return fmt.Errorf("model: distance and order vectors have %d and %d entries, want %d and %d",
			len(dist), len(order), ev.n+1, ev.n)
	}
	copy(dist, ev.dist)
	for u := 0; u < ev.n; u++ {
		k := u
		for k > 0 && dist[order[k-1]] > dist[u] {
			order[k] = order[k-1]
			k--
		}
		order[k] = u
	}
	return nil
}

// RelaxedBound prices deployment m from lower (n+1 entries, each a lower
// bound on m's shortest recharging distance, the BS last) by relaxing
// every post's out-edges once, in the given order of the n posts, under
// m's weights, stopping as soon as the running bound reaches
// limit+2·boundedSlack. It returns the bound reached (a lower bound on
// m's cost when lower is valid, whatever the order) and pruned when that
// bound certifies m's cost is at least limit+2·boundedSlack. Like
// CostDeltaBounded's early exit it engages only in the scan-min regime
// (n+1 <= tinyVerts); larger instances return (0, false) without
// relaxing. It allocates only when m holds a count no earlier call saw.
func (ev *IncrementalEvaluator) RelaxedBound(lower []float64, order []int, m []int, limit float64) (float64, bool, error) {
	n := ev.n
	if len(lower) != n+1 || len(order) != n {
		return 0, false, fmt.Errorf("model: distance and order vectors have %d and %d entries, want %d and %d",
			len(lower), len(order), n+1, n)
	}
	if len(m) != n {
		return 0, false, fmt.Errorf("model: deployment covers %d posts, want %d", len(m), n)
	}
	if n+1 > tinyVerts {
		return 0, false, nil
	}
	if ev.relaxVerts == nil {
		ev.relaxVerts = make([]relaxVertex, n+1)
		ev.relaxM = make([]int, n)
	}
	// Weights are re-derived only for posts whose count moved since the
	// previous call: a search's successive probes share most counts.
	verts := ev.relaxVerts
	for u, mu := range m {
		if mu > 0 && mu == ev.relaxM[u] {
			continue
		}
		r, err := ev.recipBelow(mu)
		if err != nil {
			return 0, false, fmt.Errorf("model: post %d: %w", u, err)
		}
		ev.relaxM[u] = mu
		verts[u].recip = r
		verts[u].rxw = float64(ev.rx * r)
	}
	var overhead float64
	if ev.p.HasOverhead() {
		for u := 0; u < n; u++ {
			overhead += float64(ev.p.Overhead(u) * verts[u].recip)
		}
	}

	rates := ev.rates
	var sum float64
	for u := 0; u < n; u++ {
		verts[u].d = lower[u]
		sum += rates[u] * lower[u]
	}
	verts[n] = relaxVertex{d: lower[n]}
	threshold := limit + 2*boundedSlack
	running := sum + overhead
	c := ev.c
	for _, u := range order {
		lo, hi := c.outOff[u], c.outOff[u+1]
		to := c.outTo[lo:hi]
		tx := c.outTx[lo:hi]
		tx = tx[:len(to)]
		ru := verts[u].recip
		best := inf
		for k, v := range to {
			if cand := verts[v].d + (float64(tx[k]*ru) + verts[v].rxw); cand < best {
				best = cand
			}
		}
		if du := verts[u].d; best > du {
			// The running total drifts from the canonical sum by float
			// reordering only; the 2·boundedSlack margin absorbs it.
			running += rates[u] * (best - du)
			verts[u].d = best
			if running >= threshold {
				return running, true, nil
			}
		}
	}
	// No early exit: report the bound in totalCost's own summation
	// order, which keeps it bitwise at most the exact cost.
	sum = 0
	for u := 0; u < n; u++ {
		sum += rates[u] * verts[u].d
	}
	bound := sum + overhead
	return bound, bound >= threshold, nil
}

// relaxVertex is one vertex's relaxed distance, its reception weight
// (at most rx/eff(m_v); 0 for the BS) and, for posts, recipBelow(m_v),
// side by side so a relaxation reads them with one index.
type relaxVertex struct {
	d, rxw, recip float64
}

// recipBelow returns the float just below 1/eff(m), through a lazily
// grown cache. It is strictly less than the real reciprocal, so for any
// x >= 0 the rounded product x*recipBelow(m) never exceeds the rounded
// quotient x/eff(m) that the settle uses (rounding is monotone). The
// products are converted explicitly so no fused multiply-add skips
// that rounding.
func (ev *IncrementalEvaluator) recipBelow(m int) (float64, error) {
	if m >= 1 && m < len(ev.recipTab) {
		if r := ev.recipTab[m]; r > 0 {
			return r, nil
		}
	}
	e, err := ev.netEff(m)
	if err != nil {
		return 0, err
	}
	if m >= len(ev.recipTab) {
		grown := make([]float64, m+16)
		copy(grown, ev.recipTab)
		ev.recipTab = grown
	}
	r := math.Nextafter(1/e, 0)
	ev.recipTab[m] = r
	return r, nil
}
