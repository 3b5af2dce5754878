package core

import (
	"math"
	"testing"
	"testing/quick"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// weightedBipartite builds a random graph with random query weights.
func weightedBipartite(tb testing.TB, seed uint64, numQ, numD, edges int) *hypergraph.Bipartite {
	tb.Helper()
	r := rng.New(seed)
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	weights := make([]int32, numQ)
	for i := range weights {
		weights[i] = int32(1 + r.Intn(9))
	}
	g, err := b.SetQueryWeights(weights).Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestWeightedGainMatchesObjectiveDelta extends the central gain-delta
// property to query-weighted graphs for the bisection refiner.
func TestWeightedGainMatchesObjectiveDelta(t *testing.T) {
	opts := Options{K: 2, P: 0.5}.withDefaults()
	err := quick.Check(func(seed uint64, vRaw uint16) bool {
		g := weightedBipartite(t, seed, 12, 16, 70)
		b := newBisection(g, opts, seed, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
		v := int32(vRaw) % 16
		b.computeGains()
		gain := b.gains[v]
		before := b.objective()
		cur := b.side[v]
		oth := 1 - cur
		b.side[v] = oth
		for _, q := range g.DataNeighbors(v) {
			b.n[q] += sideTransfer[oth]
		}
		after := b.objective()
		return math.Abs((before-after)-gain) < 1e-9
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWeightedDirectGainMatchesObjectiveDelta does the same for SHP-k.
func TestWeightedDirectGainMatchesObjectiveDelta(t *testing.T) {
	err := quick.Check(func(seed uint64, vRaw uint16) bool {
		g := weightedBipartite(t, seed, 12, 16, 70)
		opts := Options{K: 5, P: 0.5, Epsilon: 10, Direct: true}.withDefaults()
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

// TestHeavyQueryDominates builds an instance where one huge-weight query
// conflicts with several unit queries: the partitioner must favor the heavy
// one.
func TestHeavyQueryDominates(t *testing.T) {
	// Data 0..3. Heavy query {0,1} (weight 100); unit queries {0,2}, {1,3}
	// pull 0 and 1 apart. With k=2 and two vertices per side, the optimum
	// keeps {0,1} together.
	g, err := hypergraph.NewBuilder(3, 4).
		AddHyperedge(0, 0, 1).
		AddHyperedge(1, 0, 2).
		AddHyperedge(2, 1, 3).
		SetQueryWeights([]int32{100, 1, 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Options{K: 2, Seed: 3, Pairing: PairExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != res.Assignment[1] {
		t.Fatalf("heavy query split: assignment %v", res.Assignment)
	}
}

// TestWeightedFanoutImproves checks end-to-end that optimizing a weighted
// graph reduces the weighted fanout metric.
func TestWeightedFanoutImproves(t *testing.T) {
	g := weightedBipartite(t, 7, 300, 400, 2500)
	base := partition.Fanout(g, partition.Random(400, 8, 1), 8)
	for _, direct := range []bool{false, true} {
		res, err := Partition(g, Options{K: 8, Direct: direct, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if f := partition.Fanout(g, res.Assignment, 8); f >= base {
			t.Fatalf("direct=%v: weighted fanout %v did not beat random %v", direct, f, base)
		}
	}
}
