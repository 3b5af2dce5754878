package core

import (
	"fmt"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// The ε-balance contract of cold direct SHP-k, pinned at the documented
// bound rather than at a tolerance: every bucket's weight B satisfies
// B <= (1+ε)·W/k, or — where vertex granularity makes that cap
// unattainable — B < W/k + wmax (at most ⌈n/k⌉ vertices on unit weights).

// dataWeightedBipartite is randomBipartite with data weights in [1, maxW].
func dataWeightedBipartite(tb testing.TB, seed uint64, numQ, numD, edges int, maxW int) *hypergraph.Bipartite {
	tb.Helper()
	r := rng.New(seed)
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	dw := make([]int32, numD)
	for i := range dw {
		dw[i] = int32(1 + r.Intn(maxW))
	}
	g, err := b.SetDataWeights(dw).Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// checkBalanceBound fails unless every bucket of bucketW meets the
// documented bound for g, k and eps.
func checkBalanceBound(t *testing.T, label string, g *hypergraph.Bipartite, k int, eps float64, bucketW []int64) {
	t.Helper()
	total := g.TotalDataWeight()
	var wmax int64
	for v := 0; v < g.NumData(); v++ {
		if w := int64(g.DataWeight(int32(v))); w > wmax {
			wmax = w
		}
	}
	capW := float64(total) / float64(k) * (1 + eps) // the engine's own cap arithmetic
	for c, w := range bucketW {
		// B < W/k + wmax, in exact integer arithmetic.
		granular := w*int64(k) < total+wmax*int64(k)
		if float64(w) > capW && !granular {
			t.Fatalf("%s: bucket %d holds %d, above both (1+ε)·W/k = %.3f and W/k + wmax = %.3f",
				label, c, w, capW, float64(total)/float64(k)+float64(wmax))
		}
	}
}

func TestDirectColdBalanceBound(t *testing.T) {
	type graphCase struct {
		name string
		g    *hypergraph.Bipartite
	}
	graphs := []graphCase{
		// 5003 vertices: no k below divides |D|, so every cut rounds.
		{"unit", randomBipartite(t, 61, 2000, 5003, 20000)},
		{"weighted", dataWeightedBipartite(t, 62, 2000, 5003, 20000, 5)},
	}
	for _, gc := range graphs {
		for _, k := range []int{2, 8, 64, 256} {
			for _, eps := range []float64{0.05, 0.01} {
				label := fmt.Sprintf("%s/k%d/eps%g", gc.name, k, eps)
				t.Run(label, func(t *testing.T) {
					opts := Options{K: k, Direct: true, Epsilon: eps, Seed: 3}.withDefaults()
					// The random initial cut alone, then the refined result.
					st := newDirectState(gc.g, opts, rng.Mix(opts.Seed, 0xD12EC7), nil, 0)
					checkBalanceBound(t, label+"/init", gc.g, k, eps, st.bucketW)
					res, err := Partition(gc.g, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkBalanceBound(t, label+"/refined", gc.g, k, eps, bucketWeights(gc.g, res.Assignment, k))
				})
			}
		}
	}
}

// TestDirectColdBalanceTinyBuckets covers K >= |D| and buckets smaller than
// two vertices, where the old per-bucket cut sent every vertex past the
// first targets into bucket k−1.
func TestDirectColdBalanceTinyBuckets(t *testing.T) {
	cases := []struct {
		name string
		g    *hypergraph.Bipartite
		k    int
	}{
		{"d5k16", randomBipartite(t, 63, 4, 5, 12), 16},
		{"d20k8", randomBipartite(t, 64, 10, 20, 60), 8},
		{"d20k32", randomBipartite(t, 65, 10, 20, 60), 32},
		{"d100k256weighted", dataWeightedBipartite(t, 66, 40, 100, 300, 4), 256},
		{"d256k256", randomBipartite(t, 67, 80, 256, 900), 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				opts := Options{K: tc.k, Direct: true, Seed: seed}.withDefaults()
				res, err := Partition(tc.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkBalanceBound(t, fmt.Sprintf("%s/seed%d", tc.name, seed), tc.g, tc.k, opts.Epsilon,
					bucketWeights(tc.g, res.Assignment, tc.k))
			}
		})
	}
}

func bucketWeights(g *hypergraph.Bipartite, asgn []int32, k int) []int64 {
	w := make([]int64, k)
	for v, b := range asgn {
		w[b] += int64(g.DataWeight(int32(v)))
	}
	return w
}
