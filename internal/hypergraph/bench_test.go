package hypergraph_test

import (
	"testing"

	"shp/internal/gen"
	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// BenchmarkInducedByData builds the subproblem of one recursion node on a
// pruned social ego-net graph: a random half of the data vertices (a
// level-1 node) and a random 1/16 (a level-4 node), each passed ascending
// as the recursive partitioner does.
func BenchmarkInducedByData(b *testing.B) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	g, err := gen.SocialEgoNets(n, 20, 100, 0.85, 1)
	if err != nil {
		b.Fatal(err)
	}
	g = hypergraph.PruneTrivialQueries(g, 2)
	for _, c := range []struct {
		name string
		frac int
	}{{"half", 2}, {"sixteenth", 16}} {
		r := rng.New(7)
		var subset []int32
		for d := 0; d < g.NumData(); d++ {
			if r.Intn(c.frac) == 0 {
				subset = append(subset, int32(d))
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.InducedByData(subset, 2)
			}
		})
	}
}
