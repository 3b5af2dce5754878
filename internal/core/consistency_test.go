package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestIncrementalCountsStayConsistent is a regression test for the
// double-undo bug and a pin on every count-update branch: after each
// refinement iteration, the incrementally maintained packed side counts must
// equal a from-scratch recount and the side weights must match the side
// array. It runs every pairing mode at Parallelism 1/2/8 on unit and
// data-weighted graphs, at a size where batches take the patch collector
// (serial and owner-sharded) and at one where they outgrow it, and asserts
// that the sweep fallback — the recount of large probabilistic batches, the
// discarded patch of the exact pairing — actually ran.
func TestIncrementalCountsStayConsistent(t *testing.T) {
	const maxIters = 8
	modes := []PairingMode{PairHistogram, PairSimple, PairExact}
	sizes := []struct{ nq, nd, edges, seeds int }{{40, 60, 300, 10}, {1500, 4000, 16000, 1}}
	for _, mode := range modes {
		fallbacks := 0
		for _, workers := range []int{1, 2, 8} {
			for _, weighted := range []bool{false, true} {
				for si, sz := range sizes {
					for seed := uint64(1); seed <= uint64(sz.seeds); seed++ {
						g := randomBipartite(t, seed, sz.nq, sz.nd, sz.edges)
						if weighted {
							g = dataWeightedBipartite(t, seed, sz.nq, sz.nd, sz.edges, 5)
						}
						label := fmt.Sprintf("mode %d workers %d weighted %v size %d seed %d", mode, workers, weighted, si, seed)
						// Bisections are deterministic, so running iteration
						// prefixes of growing length observes the state after
						// every iteration of one run.
						for iters := 1; iters <= maxIters; iters++ {
							opts := Options{K: 2, P: 0.5, Pairing: mode, MaxIters: iters, Parallelism: workers}.withDefaults()
							b := newBisection(g, opts, seed, 0, 0, 1, 1, 0.5, 0.01, 0, nil)
							b.run()
							if len(b.history) < iters {
								break // converged: later prefixes repeat this one
							}
							checkBisectionCounts(t, fmt.Sprintf("%s iter %d", label, iters-1), b)
							if b.history[iters-1].Moved > 0 && !b.frontierValid {
								fallbacks++
							}
						}
					}
				}
			}
		}
		if fallbacks == 0 {
			t.Errorf("mode %d: no iteration took the sweep fallback", mode)
		}
	}
}

// checkBisectionCounts fails unless b's packed side counts and side weights
// equal a from-scratch recount of its side array.
func checkBisectionCounts(t *testing.T, label string, b *bisection) {
	t.Helper()
	g := b.g
	for q := 0; q < g.NumQueries(); q++ {
		var c0, c1 int32
		for _, d := range g.QueryNeighbors(int32(q)) {
			if b.side[d] == 0 {
				c0++
			} else {
				c1++
			}
		}
		if got0, got1 := sideCount(b.n[q], 0), sideCount(b.n[q], 1); got0 != c0 || got1 != c1 {
			t.Fatalf("%s: query %d counts (%d, %d), recount (%d, %d)", label, q, got0, got1, c0, c1)
		}
	}
	var w [2]int64
	for v := 0; v < g.NumData(); v++ {
		w[b.side[v]] += int64(g.DataWeight(int32(v)))
	}
	if b.w != w {
		t.Fatalf("%s: side weights %v, recount %v", label, b.w, w)
	}
}

// TestDirectWeightsStayConsistent checks the same invariant for the k-way
// refiner's bucket weights.
func TestDirectWeightsStayConsistent(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomBipartite(t, seed, 40, 60, 300)
		opts := Options{K: 5, P: 0.5, MaxIters: 8, Direct: true}.withDefaults()
		st := newDirectState(g, opts, seed, nil, 0)
		st.run()
		recount := make([]int64, 5)
		for v := 0; v < g.NumData(); v++ {
			recount[st.bucket[v]]++
		}
		for c := 0; c < 5; c++ {
			if st.bucketW[c] != recount[c] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCapsHoldThroughoutRefinement verifies the hard balance guarantee the
// strict clamp provides (within one vertex weight of the cap).
func TestCapsHoldThroughoutRefinement(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomBipartite(t, seed, 60, 100, 500)
		opts := Options{K: 2, P: 0.5, Epsilon: 0.05, MaxIters: 12}.withDefaults()
		b := newBisection(g, opts, seed, 0, 0, 1, 1, 0.5, opts.Epsilon, 0, nil)
		b.run()
		// Allow one max-weight vertex of slack (trim passes stop at first
		// fit and the two caps can be marginally incompatible).
		return float64(b.w[0]) <= b.capW[0]+1 && float64(b.w[1]) <= b.capW[1]+1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
