package core

import (
	"fmt"
	"reflect"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// TestRootShortcutMatchesInducedPath pins the root task's in-place
// bisection (coversGraph) against the induce path. A session graph that
// ApplyDelta left with tombstoned and degree-1 hyperedges must induce its
// root subproblem; a compact rebuild of its live hyperedges with two or
// more members is exactly that subproblem and is bisected in place. Both
// must give the same Assignment, History and Work.
func TestRootShortcutMatchesInducedPath(t *testing.T) {
	for _, branching := range []int{2, 4} {
		for seed := uint64(1); seed <= 2; seed++ {
			session := randomBipartite(t, seed, 1500, 3000, 12000)
			r := rng.New(seed)
			for round := 0; round < 3; round++ {
				d := hypergraph.NewDelta(session.NumQueries(), session.NumData())
				for i := 0; i < 40; i++ {
					d.RemoveHyperedge(int32(r.Intn(session.NumQueries())))
				}
				v := d.AddData(1)
				d.AddHyperedge(v)
				d.AddHyperedge(int32(r.Intn(session.NumData())))
				for i := 0; i < 30; i++ {
					members := []int32{v}
					for j := 0; j < 2+r.Intn(6); j++ {
						members = append(members, int32(r.Intn(session.NumData())))
					}
					d.AddWeightedHyperedge(int32(1+r.Intn(3)), members...)
				}
				if err := session.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
			compact := liveRebuild(t, session, 2)

			root := rtask{data: make([]int32, session.NumData())}
			for i := range root.data {
				root.data[i] = int32(i)
			}
			if coversGraph(session, root) {
				t.Fatal("session graph with degree-0/1 hyperedges took the root shortcut")
			}
			if !coversGraph(compact, root) {
				t.Fatal("compact rebuild did not take the root shortcut")
			}

			opts := Options{K: 8, Branching: branching, Seed: seed + 10, Parallelism: 2}
			got, err := Partition(session, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Partition(compact, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("branching %d seed %d", branching, seed)
			if !reflect.DeepEqual(got.Assignment, want.Assignment) {
				t.Fatalf("%s: assignments differ", label)
			}
			if !reflect.DeepEqual(got.History, want.History) {
				t.Fatalf("%s: histories differ", label)
			}
			if !reflect.DeepEqual(got.Work, want.Work) {
				t.Fatalf("%s: work counters differ", label)
			}
		}
	}
}

// liveRebuild builds a compact graph over g's data vertices from g's live
// hyperedges with at least minDegree members, in ascending query order,
// carrying data and query weights.
func liveRebuild(t *testing.T, g *hypergraph.Bipartite, minDegree int) *hypergraph.Bipartite {
	t.Helper()
	var kept []int32
	for q := 0; q < g.NumQueries(); q++ {
		if g.QueryDegree(int32(q)) >= minDegree {
			kept = append(kept, int32(q))
		}
	}
	b := hypergraph.NewBuilder(len(kept), g.NumData())
	qw := make([]int32, len(kept))
	for i, q := range kept {
		b.AddHyperedge(int32(i), g.QueryNeighbors(q)...)
		qw[i] = g.QueryWeight(q)
	}
	if g.QueryWeighted() {
		b.SetQueryWeights(qw)
	}
	if g.Weighted() {
		dw := make([]int32, g.NumData())
		for d := range dw {
			dw[d] = g.DataWeight(int32(d))
		}
		b.SetDataWeights(dw)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}
