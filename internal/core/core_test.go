package core

import (
	"math"
	"testing"
	"testing/quick"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// randomBipartite builds a random test graph.
func randomBipartite(tb testing.TB, seed uint64, numQ, numD, edges int) *hypergraph.Bipartite {
	tb.Helper()
	r := rng.New(seed)
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// figure2 builds the paper's Figure 2 instance (0-indexed): V1 = {0,1,2,3},
// V2 = {4,5,6,7}; q1 = {0,1,4,5}, q2 = {2,3,4,5}, q3 = {2,3,6,7}.
// No single data-vertex move improves fanout, but swapping (3,4) or (2,5)
// improves p-fanout for every 0 < p < 1, and applying both swaps yields the
// optimum (fanout of q1 and q3 drops to 1).
func figure2(tb testing.TB) (*hypergraph.Bipartite, []int8) {
	tb.Helper()
	g, err := hypergraph.FromHyperedges(8, [][]int32{
		{0, 1, 4, 5},
		{2, 3, 4, 5},
		{2, 3, 6, 7},
	})
	if err != nil {
		tb.Fatal(err)
	}
	side := []int8{0, 0, 0, 0, 1, 1, 1, 1}
	return g, side
}

func fanoutOfSides(g *hypergraph.Bipartite, side []int8) float64 {
	a := make(partition.Assignment, len(side))
	for i, s := range side {
		a[i] = int32(s)
	}
	return partition.Fanout(g, a, 2)
}

// newTestBisection builds a bisection with explicit initial sides.
func newTestBisection(g *hypergraph.Bipartite, opts Options, side []int8) *bisection {
	opts = opts.withDefaults()
	b := newBisection(g, opts, 42, 0, 0, 1, 1, 0.5, opts.Epsilon, 0, nil)
	copy(b.side, side)
	b.recountWeights()
	b.recountNeighborData()
	return b
}

func TestFigure2FanoutIsLocalMinimum(t *testing.T) {
	g, side := figure2(t)
	b := newTestBisection(g, Options{K: 2, Objective: ObjFanout}, side)
	b.computeGains()
	for v := 0; v < 8; v++ {
		if b.gains[v] > 1e-12 {
			t.Fatalf("fanout objective: vertex %d has positive gain %v; Figure 2 should be a local minimum", v, b.gains[v])
		}
	}
}

func TestFigure2PFanoutEscapes(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		g, side := figure2(t)
		b := newTestBisection(g, Options{K: 2, P: p}, side)
		b.computeGains()
		positive := 0
		for v := 0; v < 8; v++ {
			if b.gains[v] > 1e-12 {
				positive++
			}
		}
		if positive == 0 {
			t.Fatalf("p=%v: no positive p-fanout gains; smoothing failed to open the local minimum", p)
		}
	}
}

func TestFigure2RefinementReachesOptimum(t *testing.T) {
	// From the stuck state, p = 0.5 refinement should reach total fanout 4
	// (average 4/3); direct fanout optimization stays at 6 (average 2).
	for _, mode := range []PairingMode{PairExact, PairHistogram} {
		g, side := figure2(t)
		b := newTestBisection(g, Options{K: 2, P: 0.5, Pairing: mode, MaxIters: 20}, side)
		b.run()
		if f := fanoutOfSides(g, b.side); math.Abs(f-4.0/3.0) > 1e-9 {
			t.Fatalf("pairing %v: p=0.5 fanout = %v, want 4/3", mode, f)
		}
	}
	g, side := figure2(t)
	b := newTestBisection(g, Options{K: 2, Objective: ObjFanout, Pairing: PairExact, MaxIters: 20}, side)
	b.run()
	if f := fanoutOfSides(g, b.side); math.Abs(f-2.0) > 1e-9 {
		t.Fatalf("direct fanout optimization escaped the local minimum: fanout = %v, want 2", f)
	}
}

// TestGainMatchesObjectiveDelta is the central correctness property: the
// Equation 1 gain of a vertex must equal the exact objective change from
// applying the move, for every objective and lookahead setting.
func TestGainMatchesObjectiveDelta(t *testing.T) {
	type config struct {
		opts   Options
		tL, tR int
	}
	configs := []config{
		{Options{K: 2, P: 0.5}, 1, 1},
		{Options{K: 2, P: 0.9}, 1, 1},
		{Options{K: 2, Objective: ObjFanout}, 1, 1},
		{Options{K: 2, Objective: ObjCliqueNet}, 1, 1},
		{Options{K: 8, P: 0.5}, 4, 4},
		{Options{K: 12, P: 0.3}, 7, 5},
	}
	for ci, cfg := range configs {
		cfg.opts = cfg.opts.withDefaults()
		err := quick.Check(func(seed uint64, vRaw uint16) bool {
			g := randomBipartite(t, seed, 12, 16, 70)
			b := newBisection(g, cfg.opts, seed, 0, 0, cfg.tL, cfg.tR, 0.5, 0.05, 0, nil)
			v := int32(vRaw) % 16
			b.computeGains()
			gain := b.gains[v]
			before := b.objective()
			// Apply the move.
			cur := b.side[v]
			oth := 1 - cur
			b.side[v] = oth
			for _, q := range g.DataNeighbors(v) {
				b.n[q] += sideTransfer[oth]
			}
			after := b.objective()
			// Gain tables are quantized to the dyadic gain grid (see
			// gainGridBits), which perturbs the gain/objective-delta
			// identity by up to ~2^-32 per incident query; 1e-6 leaves
			// room for weighted high-degree test vertices.
			return math.Abs((before-after)-gain) < 1e-6
		}, &quick.Config{MaxCount: 40})
		if err != nil {
			t.Fatalf("config %d (%+v): %v", ci, cfg.opts.Objective, err)
		}
	}
}

// TestDirectGainMatchesObjectiveDelta checks the same property for the
// sparse k-way gain computation.
func TestDirectGainMatchesObjectiveDelta(t *testing.T) {
	err := quick.Check(func(seed uint64, vRaw uint16) bool {
		g := randomBipartite(t, seed, 12, 16, 70)
		opts := Options{K: 5, P: 0.5, Epsilon: 10}.withDefaults() // huge eps: no full buckets
		st := newDirectState(g, opts, seed, nil, 0)
		st.buildNeighborData()
		st.computeProposals()
		v := int32(vRaw) % 16
		tgt := st.target[v]
		if tgt < 0 {
			return true
		}
		before := st.objectiveFromND()
		st.bucket[v] = tgt
		st.buildNeighborData()
		after := st.objectiveFromND()
		return math.Abs((before-after)-st.gains[v]) < 1e-9
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectTargetIsArgmax verifies the chosen target maximizes the gain
// among all non-full buckets.
func TestDirectTargetIsArgmax(t *testing.T) {
	g := randomBipartite(t, 7, 15, 20, 90)
	opts := Options{K: 4, P: 0.5, Epsilon: 10}.withDefaults()
	st := newDirectState(g, opts, 3, nil, 0)
	st.buildNeighborData()
	st.computeProposals()
	for v := int32(0); v < 20; v++ {
		tgt := st.target[v]
		if tgt < 0 {
			continue
		}
		before := st.objectiveFromND()
		cur := st.bucket[v]
		bestDelta := math.Inf(-1)
		for c := int32(0); c < 4; c++ {
			if c == cur {
				continue
			}
			st.bucket[v] = c
			st.buildNeighborData()
			delta := before - st.objectiveFromND()
			if delta > bestDelta+1e-12 {
				bestDelta = delta
			}
			st.bucket[v] = cur
		}
		st.buildNeighborData()
		if math.Abs(bestDelta-st.gains[v]) > 1e-9 {
			t.Fatalf("vertex %d: argmax delta %v but proposal gain %v", v, bestDelta, st.gains[v])
		}
	}
}

func TestPartitionRecursiveValidBalanced(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 16} {
		g := randomBipartite(t, uint64(k), 300, 500, 3000)
		res, err := Partition(g, Options{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := partition.Imbalance(res.Assignment, k); imb > 0.05+0.03 {
			t.Fatalf("k=%d: imbalance %v exceeds ε=0.05 (+stochastic tolerance)", k, imb)
		}
	}
}

func TestPartitionImprovesOverRandom(t *testing.T) {
	// A planted 4-community hypergraph: queries live inside communities,
	// so SHP should get close to fanout 1, far below random's ~3.
	r := rng.New(99)
	const perCommunity, communities = 100, 4
	nd := perCommunity * communities
	b := hypergraph.NewBuilder(400, nd)
	for q := 0; q < 400; q++ {
		c := q % communities
		for e := 0; e < 6; e++ {
			b.AddEdge(int32(q), int32(c*perCommunity+r.Intn(perCommunity)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	randomF := partition.Fanout(g, partition.Random(nd, communities, 5), communities)
	res, err := Partition(g, Options{K: communities, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	shpF := partition.Fanout(g, res.Assignment, communities)
	if shpF > randomF*0.55 {
		t.Fatalf("SHP fanout %v not far below random %v on planted communities", shpF, randomF)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := randomBipartite(t, 5, 200, 300, 2000)
	for _, branching := range []int{2, 0} {
		a, err := Partition(g, Options{K: 8, Seed: 7, Branching: branching, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(g, Options{K: 8, Seed: 7, Branching: branching, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Assignment {
			if a.Assignment[i] != b.Assignment[i] {
				t.Fatalf("branching=%d: parallelism changed the result at vertex %d", branching, i)
			}
		}
		c, err := Partition(g, Options{K: 8, Seed: 8, Branching: branching})
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range a.Assignment {
			if a.Assignment[i] != c.Assignment[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Fatalf("branching=%d: different seeds produced identical partitions", branching)
		}
	}
}

func TestPartitionDirectValidBalanced(t *testing.T) {
	for _, k := range []int{2, 8, 32} {
		g := randomBipartite(t, uint64(k)+100, 300, 500, 3000)
		res, err := Partition(g, Options{K: k, Direct: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := partition.Imbalance(res.Assignment, k); imb > 0.05+0.05 {
			t.Fatalf("k=%d: direct imbalance %v", k, imb)
		}
	}
}

func TestObjectiveDecreasesOverIterations(t *testing.T) {
	g := randomBipartite(t, 31, 400, 600, 5000)
	res, err := Partition(g, Options{K: 2, Seed: 3, Pairing: PairExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Skip("converged immediately")
	}
	first := res.History[0].Objective
	last := res.History[len(res.History)-1].Objective
	if last > first {
		t.Fatalf("objective rose over refinement: %v -> %v", first, last)
	}
}

func TestPairingModesAllReduceFanout(t *testing.T) {
	g := randomBipartite(t, 77, 500, 800, 6000)
	base := partition.Fanout(g, partition.Random(800, 8, 1), 8)
	for _, mode := range []PairingMode{PairHistogram, PairSimple, PairExact} {
		res, err := Partition(g, Options{K: 8, Seed: 4, Pairing: mode})
		if err != nil {
			t.Fatal(err)
		}
		f := partition.Fanout(g, res.Assignment, 8)
		if f >= base {
			t.Fatalf("pairing %v: fanout %v did not improve over random %v", mode, f, base)
		}
	}
}

func TestCliqueNetObjectiveReducesCut(t *testing.T) {
	g := randomBipartite(t, 13, 300, 400, 2500)
	randomCut := partition.CliqueNetCut(g, partition.Random(400, 4, 9))
	res, err := Partition(g, Options{K: 4, Objective: ObjCliqueNet, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cut := partition.CliqueNetCut(g, res.Assignment)
	if cut >= randomCut {
		t.Fatalf("clique-net cut %v did not improve over random %v", cut, randomCut)
	}
}

func TestWarmStartWithPenaltyLimitsChurn(t *testing.T) {
	g := randomBipartite(t, 17, 400, 600, 4000)
	first, err := Partition(g, Options{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Re-partition warm-started with a prohibitive move penalty: almost
	// nothing should move.
	again, err := Partition(g, Options{K: 4, Seed: 60, Initial: first.Assignment, MoveCostPenalty: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range first.Assignment {
		if first.Assignment[i] != again.Assignment[i] {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(first.Assignment)); frac > 0.02 {
		t.Fatalf("%.1f%% vertices moved despite prohibitive penalty", frac*100)
	}
	// Without the penalty the warm start is free to move more.
	free, err := Partition(g, Options{K: 4, Seed: 60, Initial: first.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	if err := free.Assignment.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartDirectMode(t *testing.T) {
	g := randomBipartite(t, 19, 300, 500, 3000)
	first, err := Partition(g, Options{K: 8, Direct: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Partition(g, Options{K: 8, Direct: true, Seed: 12, Initial: first.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	f1 := partition.Fanout(g, first.Assignment, 8)
	f2 := partition.Fanout(g, again.Assignment, 8)
	if f2 > f1*1.05 {
		t.Fatalf("warm-started run regressed fanout: %v -> %v", f1, f2)
	}
}

func TestTrackFanoutHistory(t *testing.T) {
	g := randomBipartite(t, 23, 300, 500, 3000)
	res, err := Partition(g, Options{K: 8, Direct: true, Seed: 13, TrackFanout: true, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	for i, h := range res.History {
		if h.Fanout <= 0 {
			t.Fatalf("history[%d].Fanout = %v, want > 0", i, h.Fanout)
		}
	}
	// Final tracked fanout should match an independent measurement.
	want := partition.Fanout(g, res.Assignment, 8)
	got := res.History[len(res.History)-1].Fanout
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("tracked fanout %v != measured %v", got, want)
	}
}

func TestK1Trivial(t *testing.T) {
	g := randomBipartite(t, 3, 20, 30, 100)
	res, err := Partition(g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Assignment {
		if b != 0 {
			t.Fatal("k=1 must assign everything to bucket 0")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g := randomBipartite(t, 3, 10, 10, 30)
	cases := []Options{
		{K: 0},
		{K: 2, Epsilon: -1},
		{K: 2, P: 2},
		{K: 2, Branching: 1},
		{K: 2, Branching: -1},
		{K: 2, Direct: true, Pairing: PairExact},
		{K: 2, Initial: partition.Assignment{0}},
		{K: 2, Initial: partition.Assignment{0, 5, 0, 0, 0, 0, 0, 0, 0, 0}},
		{K: 2, MoveCostPenalty: -1},
	}
	for i, o := range cases {
		if _, err := Partition(g, o); err == nil {
			t.Errorf("case %d (%+v): expected error", i, o)
		}
	}
}

func TestRecursiveBranching4(t *testing.T) {
	g := randomBipartite(t, 41, 300, 512, 3000)
	res, err := Partition(g, Options{K: 16, Branching: 4, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(16); err != nil {
		t.Fatal(err)
	}
	if imb := partition.Imbalance(res.Assignment, 16); imb > 0.15 {
		t.Fatalf("branching-4 imbalance %v", imb)
	}
	f := partition.Fanout(g, res.Assignment, 16)
	base := partition.Fanout(g, partition.Random(512, 16, 3), 16)
	if f >= base {
		t.Fatalf("branching-4 fanout %v >= random %v", f, base)
	}
}

func TestWeightedBalance(t *testing.T) {
	r := rng.New(3)
	b := hypergraph.NewBuilder(200, 300)
	for i := 0; i < 1500; i++ {
		b.AddEdge(int32(r.Intn(200)), int32(r.Intn(300)))
	}
	weights := make([]int32, 300)
	for i := range weights {
		weights[i] = int32(1 + r.Intn(5))
	}
	g, err := b.SetDataWeights(weights).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Options{K: 4, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if imb := partition.WeightedImbalance(g, res.Assignment, 4); imb > 0.05+0.07 {
		t.Fatalf("weighted imbalance %v", imb)
	}
}

func TestLookaheadAblationRuns(t *testing.T) {
	g := randomBipartite(t, 53, 400, 600, 4000)
	with, err := Partition(g, Options{K: 16, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Partition(g, Options{K: 16, Seed: 16, DisableLookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	fWith := partition.Fanout(g, with.Assignment, 16)
	fWithout := partition.Fanout(g, without.Assignment, 16)
	// Both must be sane; lookahead usually helps but is not guaranteed on
	// arbitrary random graphs, so only check both produce real partitions.
	if fWith <= 0 || fWithout <= 0 {
		t.Fatal("lookahead ablation produced degenerate fanout")
	}
}

func TestEvenSpans(t *testing.T) {
	cases := []struct {
		span, r int
		want    []int
	}{
		{8, 2, []int{4, 4}},
		{5, 2, []int{3, 2}},
		{7, 3, []int{3, 2, 2}},
		{3, 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got := evenSpans(c.span, c.r)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("evenSpans(%d,%d) = %v, want %v", c.span, c.r, got, c.want)
			}
		}
	}
}

func TestLevelsFor(t *testing.T) {
	cases := []struct{ k, r, want int }{
		{2, 2, 1}, {4, 2, 2}, {5, 2, 3}, {8, 2, 3}, {512, 2, 9},
		{9, 3, 2}, {16, 4, 2}, {1, 2, 0},
	}
	for _, c := range cases {
		if got := levelsFor(c.k, c.r); got != c.want {
			t.Fatalf("levelsFor(%d,%d) = %d, want %d", c.k, c.r, got, c.want)
		}
	}
}

func TestHistoryOrdering(t *testing.T) {
	g := randomBipartite(t, 67, 300, 400, 2500)
	res, err := Partition(g, Options{K: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		a, b := res.History[i-1], res.History[i]
		if b.Level < a.Level {
			t.Fatal("history not ordered by level")
		}
		if b.Level == a.Level && b.Task == a.Task && b.Iter != a.Iter+1 {
			t.Fatal("iterations within a task are not consecutive")
		}
	}
	if res.Iterations != len(res.History) {
		t.Fatalf("Iterations = %d but %d history entries", res.Iterations, len(res.History))
	}
}
