package core

// Tests of the bisection (SHP-2) port of the shared incremental-gain
// kernel: patched accumulators must bit-equal a from-scratch rebuild under
// random move batches, the safety-net rebuild schedule must be invisible,
// and the hub-heavy churn-proportionality claim is pinned by deterministic
// work counters rather than wall time (the mirror of distshp's
// TestDistDeltaPatchProperty / TestDistDeltaCutsLateSuperstepBytes).

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"shp/internal/gen"
	"shp/internal/rng"
)

// TestBisectionDeltaPatchProperty applies random move batches through the
// real patch path (applyMovePatched + finishPatch + computeGains) and
// checks after every batch that the maintained side counts and the patched
// accumulators/gains of every vertex bit-equal a from-scratch rebuild.
// Asymmetric lookahead (tLeft != tRight) keeps the two sides on different
// gain tables, so table-routing mistakes cannot cancel out. Every few
// rounds the safety-net recount fires too, which must change nothing.
func TestBisectionDeltaPatchProperty(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		g := randomBipartite(t, seed, 60, 120, 700)
		opts := Options{K: 2, P: 0.5, Epsilon: 10}.withDefaults()
		b := newBisection(g, opts, seed, 0, 0, 1, 2, 0.5, 10, 0, nil)
		b.computeGains()
		b.allActive = false
		r := rng.New(seed ^ 0xBEEF)
		for round := 0; round < 25; round++ {
			if round > 0 && round%7 == 0 {
				// NDRebuildEvery-style safety net: recount + full rebuild.
				b.recountNeighborData()
				b.allActive = true
				b.computeGains()
				b.allActive = false
			}
			var movers []int32
			seen := make(map[int32]bool)
			for i := 0; i < 1+r.Intn(8); i++ {
				v := int32(r.Intn(g.NumData()))
				if seen[v] {
					continue // a real batch moves each vertex at most once
				}
				seen[v] = true
				cur := b.side[v]
				b.side[v] = 1 - cur
				wv := int64(g.DataWeight(v))
				b.w[cur] -= wv
				b.w[1-cur] += wv
				b.applyMovePatched(v)
				movers = append(movers, v)
			}
			b.finishPatch(movers)
			b.computeGains()

			ref := newBisection(g, opts, seed, 0, 0, 1, 2, 0.5, 10, 0, nil)
			copy(ref.side, b.side)
			ref.recountWeights()
			ref.recountNeighborData()
			ref.allActive = true
			ref.computeGains()
			for q := 0; q < g.NumQueries(); q++ {
				if b.n[q] != ref.n[q] {
					t.Fatalf("seed %d round %d query %d: maintained counts (%d, %d) != rebuilt (%d, %d)",
						seed, round, q, sideCount(b.n[q], 0), sideCount(b.n[q], 1), sideCount(ref.n[q], 0), sideCount(ref.n[q], 1))
				}
			}
			for v := 0; v < g.NumData(); v++ {
				if b.accOwn[v] != ref.accOwn[v] || b.accOth[v] != ref.accOth[v] {
					t.Fatalf("seed %d round %d vertex %d: patched accumulators (%v, %v) != rebuilt (%v, %v)",
						seed, round, v, b.accOwn[v], b.accOth[v], ref.accOwn[v], ref.accOth[v])
				}
				if b.gains[v] != ref.gains[v] {
					t.Fatalf("seed %d round %d vertex %d: patched gain %v != rebuilt %v",
						seed, round, v, b.gains[v], ref.gains[v])
				}
			}
		}
	}
}

// TestBisectionRebuildScheduleInvariant checks the bisection safety net is
// a pure performance knob, across seeds: rebuilding the maintained counts
// every iteration (NDRebuildEvery=1), rarely (3), and never (-1) all
// produce identical assignments and histories.
func TestBisectionRebuildScheduleInvariant(t *testing.T) {
	g := largeRandomBipartite(t, 41, 3000, 6000, 24000)
	for _, seed := range []uint64{5, 11} {
		base, err := Partition(g, Options{K: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range []int{1, 3, -1} {
			res, err := Partition(g, Options{K: 8, Seed: seed, NDRebuildEvery: re})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Assignment, res.Assignment) {
				t.Fatalf("seed %d: NDRebuildEvery=%d changed the assignment", seed, re)
			}
			if !reflect.DeepEqual(base.History, res.History) {
				t.Fatalf("seed %d: NDRebuildEvery=%d changed the history", seed, re)
			}
		}
	}
}

// TestBisectionDeltaCutsLateGainWork pins the tentpole claim for SHP-2 with
// deterministic counters: on a hub-heavy graph refined from a lightly
// perturbed warm start, the late iterations (everything after the first,
// which rebuilds all state on both paths) must cost the patched engine at
// least 3x fewer Equation 1 work units than the full recomputation, while
// producing byte-identical sides and histories. Work units — table terms
// summed plus delta records folded — proxy the memory stream, so the floor
// cannot flake on machine load the way a wall-clock ratio would.
func TestBisectionDeltaCutsLateGainWork(t *testing.T) {
	numQ, numD := 1500, 2500
	g, err := gen.HubPowerLawBipartite(numQ, numD, int64(numD)*8, 2.1, 0.004, numD/8, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, P: 0.5, MinMoveFraction: 1e-9}.withDefaults()

	cold := newBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
	sides := cold.run()
	home := append([]int8(nil), sides...)
	r := rng.New(7)
	for i := 0; i < numD/100; i++ { // ~1% churn
		v := r.Intn(numD)
		home[v] = 1 - home[v]
	}
	run := func(disable bool) *bisection {
		o := opts
		o.DisableIncremental = disable
		b := newBisection(g, o, 13, 0, 0, 1, 1, 0.5, 0.05, 0, append([]int8(nil), home...))
		b.run()
		return b
	}
	inc := run(false)
	full := run(true)
	if !slices.Equal(inc.side, full.side) {
		t.Fatal("incremental and full warm refinements diverged")
	}
	if !reflect.DeepEqual(inc.history, full.history) {
		t.Fatalf("histories diverged: %+v vs %+v", inc.history, full.history)
	}
	if len(inc.history) < 2 {
		t.Fatal("warm refinement converged in one iteration; nothing late to measure")
	}
	lateInc := inc.workHist[len(inc.workHist)-1] - inc.workHist[0]
	lateFull := full.workHist[len(full.workHist)-1] - full.workHist[0]
	if lateInc <= 0 || lateFull <= 0 {
		t.Fatalf("degenerate work counters: inc %d, full %d", lateInc, lateFull)
	}
	if lateInc*3 > lateFull {
		t.Fatalf("late gain work: incremental %d vs full %d over %d iterations — less than the required 3x reduction",
			lateInc, lateFull, len(inc.history)-1)
	}
	t.Logf("late gain work over %d iterations: incremental %d vs full %d (%.1fx)",
		len(inc.history)-1, lateInc, lateFull, float64(lateFull)/float64(lateInc))
}

// BenchmarkBisectionDelta measures the bisection engine where it matters:
// hub-heavy warm-started refinement at a controlled churn level, with the
// recursion/induction machinery stripped away so the numbers isolate the
// per-iteration gain maintenance. A converged bisection's sides are
// perturbed by a known moved fraction and re-refined with the
// patched-accumulator engine on and off — identical results per
// Options.DisableIncremental equivalence, so edges/s differences are pure
// engine savings. The shp2-delta experiment reports the same ablation
// end-to-end through core.Partition.
func BenchmarkBisectionDelta(b *testing.B) {
	g, err := gen.HubPowerLawBipartite(12000, 20000, 160000, 2.1, 0.001, 2500, 5)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{K: 2, P: 0.5}.withDefaults()
	cold := newBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
	sides := cold.run()
	perturb := func(frac float64) []int8 {
		home := append([]int8(nil), sides...)
		r := rng.New(7)
		for i := 0; i < int(frac*float64(len(home))); i++ {
			v := r.Intn(len(home))
			home[v] = 1 - home[v]
		}
		return home
	}
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		home := perturb(frac)
		for _, engine := range []struct {
			name    string
			disable bool
		}{{"incremental", false}, {"full-rebuild", true}} {
			b.Run(fmt.Sprintf("moved%g%%-%s", frac*100, engine.name), func(b *testing.B) {
				o := opts
				o.DisableIncremental = engine.disable
				var iters int
				for i := 0; i < b.N; i++ {
					bis := newBisection(g, o, 13, 0, 0, 1, 1, 0.5, 0.05, 0, home)
					bis.run()
					iters = len(bis.history)
				}
				b.ReportMetric(float64(iters), "iters")
				b.ReportMetric(float64(g.NumEdges())*float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}
