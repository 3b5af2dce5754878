package hypergraph

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"shp/internal/par"
	"shp/internal/rng"
)

// figure1 builds the paper's Figure 1 example: queries {1,2,6}, {1,2,3,4},
// {4,5,6} over six data vertices (0-indexed here).
func figure1(t *testing.T) *Bipartite {
	t.Helper()
	g, err := FromHyperedges(6, [][]int32{
		{0, 1, 5},
		{0, 1, 2, 3},
		{3, 4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFigure1Shape(t *testing.T) {
	g := figure1(t)
	if g.NumQueries() != 3 || g.NumData() != 6 || g.NumEdges() != 10 {
		t.Fatalf("got Q=%d D=%d E=%d", g.NumQueries(), g.NumData(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.QueryNeighbors(1); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("query 1 neighbors = %v", got)
	}
	if got := g.DataNeighbors(0); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("data 0 neighbors = %v", got)
	}
	if g.QueryDegree(0) != 3 || g.DataDegree(3) != 2 {
		t.Fatal("degree accessors wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g, err := NewBuilder(1, 3).
		AddEdge(0, 1).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("duplicates not removed: %d edges", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := NewBuilder(1, 1).AddEdge(0, 5).Build(); err == nil {
		t.Fatal("expected error for out-of-range data id")
	}
	if _, err := NewBuilder(1, 1).AddEdge(3, 0).Build(); err == nil {
		t.Fatal("expected error for out-of-range query id")
	}
	if _, err := NewBuilder(1, 1).AddEdge(0, -1).Build(); err == nil {
		t.Fatal("expected error for negative id")
	}
}

func TestBuilderWeights(t *testing.T) {
	g, err := NewBuilder(1, 2).AddEdge(0, 0).SetDataWeights([]int32{3, 5}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || g.DataWeight(0) != 3 || g.DataWeight(1) != 5 {
		t.Fatal("weights not preserved")
	}
	if g.TotalDataWeight() != 8 {
		t.Fatalf("TotalDataWeight = %d", g.TotalDataWeight())
	}
	if _, err := NewBuilder(1, 2).SetDataWeights([]int32{1}).Build(); err == nil {
		t.Fatal("expected weight length error")
	}
}

func TestUnweightedDefaults(t *testing.T) {
	g := figure1(t)
	if g.Weighted() || g.DataWeight(2) != 1 || g.TotalDataWeight() != 6 {
		t.Fatal("unweighted defaults wrong")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := figure1(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumQueries(), g.NumData(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("edge round trip changed the graph")
	}
}

func TestStats(t *testing.T) {
	g := figure1(t)
	s := g.ComputeStats()
	if s.NumEdges != 10 || s.MaxQueryDeg != 4 || s.MaxDataDeg != 2 || s.IsolatedData != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgQueryDeg < 3.3 || s.AvgQueryDeg > 3.4 {
		t.Fatalf("AvgQueryDeg = %v", s.AvgQueryDeg)
	}
}

func TestIsolatedDataCounted(t *testing.T) {
	g, err := FromEdges(1, 4, []Edge{{0, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.ComputeStats(); s.IsolatedData != 2 {
		t.Fatalf("IsolatedData = %d, want 2", s.IsolatedData)
	}
}

func TestPruneTrivialQueries(t *testing.T) {
	g, err := FromHyperedges(5, [][]int32{
		{0},       // degree 1: pruned
		{1, 2},    // kept
		{},        // degree 0: pruned
		{2, 3, 4}, // kept
	})
	if err != nil {
		t.Fatal(err)
	}
	p := PruneTrivialQueries(g, 2)
	if p.NumQueries() != 2 || p.NumData() != 5 || p.NumEdges() != 5 {
		t.Fatalf("pruned shape Q=%d D=%d E=%d", p.NumQueries(), p.NumData(), p.NumEdges())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.QueryNeighbors(1), []int32{2, 3, 4}) {
		t.Fatal("pruned adjacency wrong")
	}
	// No-op prune returns the same graph.
	if q := PruneTrivialQueries(p, 2); q != p {
		t.Fatal("no-op prune should return the receiver")
	}
}

func TestInducedByData(t *testing.T) {
	g := figure1(t)
	// Take the right half {3,4,5} (0-indexed data ids).
	sub, keptQ := g.InducedByData([]int32{3, 4, 5}, 2)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Only query 2 = {3,4,5} retains >= 2 members; query 0 has one member (5),
	// query 1 has one member (3).
	if sub.NumQueries() != 1 || !reflect.DeepEqual(keptQ, []int32{2}) {
		t.Fatalf("kept queries = %v", keptQ)
	}
	if !reflect.DeepEqual(sub.QueryNeighbors(0), []int32{0, 1, 2}) {
		t.Fatalf("relabeled neighbors = %v", sub.QueryNeighbors(0))
	}
}

func TestInducedByDataPreservesWeights(t *testing.T) {
	g, err := NewBuilder(1, 3).AddHyperedge(0, 0, 1, 2).SetDataWeights([]int32{7, 8, 9}).Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := g.InducedByData([]int32{2, 0}, 2)
	if sub.DataWeight(0) != 9 || sub.DataWeight(1) != 7 {
		t.Fatal("induced subgraph weights wrong")
	}
}

func TestInducedByDataUnsortedSubset(t *testing.T) {
	g := figure1(t)
	sub, _ := g.InducedByData([]int32{5, 0, 1}, 2)
	if err := sub.Validate(); err != nil {
		t.Fatalf("unsorted subset produced invalid CSR: %v", err)
	}
	// Query 0 = {0,1,5} has all three members; relabeled ids {0,1,2}.
	found := false
	for q := 0; q < sub.NumQueries(); q++ {
		if sub.QueryDegree(int32(q)) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a fully contained hyperedge in the induced subgraph")
	}
}

// randomGraph builds a random bipartite graph for property tests.
func randomGraph(seed uint64, numQ, numD, edges int) *Bipartite {
	r := rng.New(seed)
	b := NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyCSRSymmetry(t *testing.T) {
	// The two CSR directions must describe the same incidence set.
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 20, 30, 100)
		if g.Validate() != nil {
			return false
		}
		var fromQ, fromD []Edge
		for q := 0; q < g.NumQueries(); q++ {
			for _, d := range g.QueryNeighbors(int32(q)) {
				fromQ = append(fromQ, Edge{int32(q), d})
			}
		}
		for d := 0; d < g.NumData(); d++ {
			for _, q := range g.DataNeighbors(int32(d)) {
				fromD = append(fromD, Edge{q, int32(d)})
			}
		}
		less := func(es []Edge) func(i, j int) bool {
			return func(i, j int) bool {
				if es[i].Q != es[j].Q {
					return es[i].Q < es[j].Q
				}
				return es[i].D < es[j].D
			}
		}
		sort.Slice(fromQ, less(fromQ))
		sort.Slice(fromD, less(fromD))
		return reflect.DeepEqual(fromQ, fromD)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDegreeSumsMatchEdges(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 15, 25, 80)
		var qSum, dSum int64
		for q := 0; q < g.NumQueries(); q++ {
			qSum += int64(g.QueryDegree(int32(q)))
		}
		for d := 0; d < g.NumData(); d++ {
			dSum += int64(g.DataDegree(int32(d)))
		}
		return qSum == g.NumEdges() && dSum == g.NumEdges()
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInducedSubgraphEdgesAreSubset(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 15, 25, 80)
		r := rng.New(seed ^ 0xabcdef)
		var subset []int32
		for d := 0; d < g.NumData(); d++ {
			if r.Bool() {
				subset = append(subset, int32(d))
			}
		}
		if len(subset) == 0 {
			return true
		}
		sub, keptQ := g.InducedByData(subset, 2)
		if sub.Validate() != nil {
			return false
		}
		// Every induced incidence must exist in the parent graph.
		for q := 0; q < sub.NumQueries(); q++ {
			origQ := keptQ[q]
			for _, nd := range sub.QueryNeighbors(int32(q)) {
				origD := subset[nd]
				found := false
				for _, d := range g.QueryNeighbors(origQ) {
					if d == origD {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxQueryDegree(t *testing.T) {
	g := figure1(t)
	if g.MaxQueryDegree() != 4 {
		t.Fatalf("MaxQueryDegree = %d", g.MaxQueryDegree())
	}
	empty, _ := FromEdges(0, 0, nil)
	if empty.MaxQueryDegree() != 0 {
		t.Fatal("empty graph max degree should be 0")
	}
}

// TestMaxQueryDegreeCached verifies the cached maximum stays consistent with
// a rescan through every construction path: Build, PruneTrivialQueries, and
// InducedByData (which relabel and drop hyperedges).
func TestMaxQueryDegreeCached(t *testing.T) {
	rescan := func(g *Bipartite) int {
		maxDeg := 0
		for q := 0; q < g.NumQueries(); q++ {
			if d := g.QueryDegree(int32(q)); d > maxDeg {
				maxDeg = d
			}
		}
		return maxDeg
	}
	r := rng.New(42)
	b := NewBuilder(50, 80)
	for i := 0; i < 400; i++ {
		b.AddEdge(int32(r.Intn(50)), int32(r.Intn(80)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.MaxQueryDegree(), rescan(g); got != want {
		t.Fatalf("Build: cached %d, rescan %d", got, want)
	}
	pruned := PruneTrivialQueries(g, 4)
	if got, want := pruned.MaxQueryDegree(), rescan(pruned); got != want {
		t.Fatalf("PruneTrivialQueries: cached %d, rescan %d", got, want)
	}
	subset := make([]int32, 0, 40)
	for d := int32(0); d < 80; d += 2 {
		subset = append(subset, d)
	}
	sub, _ := g.InducedByData(subset, 2)
	if got, want := sub.MaxQueryDegree(), rescan(sub); got != want {
		t.Fatalf("InducedByData: cached %d, rescan %d", got, want)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := rng.New(1)
	edges := make([]Edge, 100000)
	for i := range edges {
		edges[i] = Edge{Q: int32(r.Intn(10000)), D: int32(r.Intn(20000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(10000, 20000, edges); err != nil {
			b.Fatal(err)
		}
	}
}

// inducedByDataReference is the filter-and-transpose InducedByData the
// one-pass builder replaced, kept as the reference it is pinned against:
// it rescans every kept query's full parent adjacency through a data map,
// re-sorts the filtered lists when the subset is not monotone, and
// transposes the result with rebuildReverse.
func inducedByDataReference(g *Bipartite, dataIDs []int32, minQueryDegree int) (*Bipartite, []int32) {
	dmap := make([]int32, g.numD)
	for i := range dmap {
		dmap[i] = -1
	}
	monotone := true
	for newID, d := range dataIDs {
		dmap[d] = int32(newID)
		if newID > 0 && d <= dataIDs[newID-1] {
			monotone = false
		}
	}
	qCount := make([]int32, g.numQ)
	for _, d := range dataIDs {
		for _, q := range g.DataNeighbors(d) {
			qCount[q]++
		}
	}
	keptQ := make([]int32, 0)
	for q := 0; q < g.numQ; q++ {
		if int(qCount[q]) >= minQueryDegree {
			keptQ = append(keptQ, int32(q))
		}
	}
	out := &Bipartite{numQ: len(keptQ), numD: len(dataIDs)}
	if g.dWeight != nil {
		out.dWeight = make([]int32, len(dataIDs))
		for i, d := range dataIDs {
			out.dWeight[i] = g.dWeight[d]
		}
	}
	if g.qWeight != nil {
		out.qWeight = make([]int32, len(keptQ))
		for i, q := range keptQ {
			out.qWeight[i] = g.qWeight[q]
		}
	}
	out.qOff = make([]int64, len(keptQ)+1)
	var total int64
	for i, q := range keptQ {
		total += int64(qCount[q])
		out.qOff[i+1] = total
	}
	out.qAdj = make([]int32, total)
	par.For(len(keptQ), 0, func(start, end int) {
		for i := start; i < end; i++ {
			q := keptQ[i]
			dst := out.qAdj[out.qOff[i]:out.qOff[i+1]]
			n := 0
			for _, d := range g.QueryNeighbors(q) {
				if nd := dmap[d]; nd >= 0 {
					dst[n] = nd
					n++
				}
			}
			if !monotone {
				sort.Slice(dst, func(a, b int) bool { return dst[a] < dst[b] })
			}
		}
	})
	out.rebuildReverse()
	return out, keptQ
}

// assertSameCompact fails unless got and want are compact graphs with the
// same offsets and adjacency in both directions, the same weights and the
// same cached maximum query degree, and got passes Validate.
func assertSameCompact(t *testing.T, label string, got, want *Bipartite) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"dims", [2]int{got.numQ, got.numD}, [2]int{want.numQ, want.numD}},
		{"qOff", got.qOff, want.qOff},
		{"qAdj", got.qAdj, want.qAdj},
		{"dOff", got.dOff, want.dOff},
		{"dAdj", got.dAdj, want.dAdj},
		{"dWeight", got.dWeight, want.dWeight},
		{"qWeight", got.qWeight, want.qWeight},
		{"maxQDeg", [2]int{got.maxQDeg, got.maxQDegCount}, [2]int{want.maxQDeg, want.maxQDegCount}},
		{"mutable", got.qLen != nil, want.qLen != nil},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s differs: %v vs %v", label, c.name, c.got, c.want)
		}
	}
}

// churnedGraph returns a random graph, optionally data- and query-weighted,
// and optionally moved to the mutable layout by deltas that tombstone
// hyperedges, add degree-1 and larger ones (relocating reverse segments),
// add data vertices, and reweight data.
func churnedGraph(t *testing.T, seed uint64, weighted, mutate bool) *Bipartite {
	t.Helper()
	r := rng.New(seed ^ 0x5eed)
	const numQ, numD = 30, 40
	b := NewBuilder(numQ, numD)
	for i := 0; i < 160; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	if weighted {
		dw := make([]int32, numD)
		for i := range dw {
			dw[i] = int32(1 + r.Intn(9))
		}
		qw := make([]int32, numQ)
		for i := range qw {
			qw[i] = int32(1 + r.Intn(4))
		}
		b.SetDataWeights(dw).SetQueryWeights(qw)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !mutate {
		return g
	}
	for round := 0; round < 3; round++ {
		d := NewDelta(g.NumQueries(), g.NumData())
		for i := 0; i < 4; i++ {
			d.RemoveHyperedge(int32(r.Intn(g.NumQueries())))
		}
		v := d.AddData(int32(1 + r.Intn(3)))
		d.AddHyperedge(v)
		for i := 0; i < 6; i++ {
			members := []int32{v}
			for j := 0; j < 1+r.Intn(8); j++ {
				members = append(members, int32(r.Intn(g.NumData())))
			}
			d.AddWeightedHyperedge(int32(1+r.Intn(3)), members...)
		}
		if weighted {
			d.SetDataWeight(int32(r.Intn(g.NumData())), int32(1+r.Intn(9)))
		}
		if err := g.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	if g.qLen == nil {
		t.Fatal("deltas left the graph compact")
	}
	return g
}

// TestInducedByDataMatchesReference pins the one-pass InducedByData against
// the filter-and-transpose reference: same kept queries, offsets, adjacency
// in both directions, weights and cached max degree, over monotone and
// shuffled subsets, minQueryDegree 1/2/3, unit and weighted graphs, and
// compact as well as mutated graphs.
func TestInducedByDataMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, weighted := range []bool{false, true} {
			for _, mutate := range []bool{false, true} {
				g := churnedGraph(t, seed, weighted, mutate)
				r := rng.New(seed)
				var subset []int32
				for d := 0; d < g.NumData(); d++ {
					if r.Intn(3) > 0 {
						subset = append(subset, int32(d))
					}
				}
				shuffled := append([]int32(nil), subset...)
				r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for _, ids := range [][]int32{subset, shuffled, nil} {
					for minDeg := 1; minDeg <= 3; minDeg++ {
						label := fmt.Sprintf("seed %d weighted %v mutated %v |subset| %d minDeg %d", seed, weighted, mutate, len(ids), minDeg)
						got, gotQ := g.InducedByData(ids, minDeg)
						want, wantQ := inducedByDataReference(g, ids, minDeg)
						if !reflect.DeepEqual(gotQ, wantQ) {
							t.Fatalf("%s: kept queries %v vs %v", label, gotQ, wantQ)
						}
						assertSameCompact(t, label, got, want)
					}
				}
			}
		}
	}
}

// TestInducedByDataWholeGraphIsIdentity pins the premise of the recursive
// partitioner's root-task shortcut: when every hyperedge has at least two
// members, inducing on all data vertices with minQueryDegree 2 reproduces
// the graph accessor for accessor, so the root can be bisected in place.
func TestInducedByDataWholeGraphIsIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, weighted := range []bool{false, true} {
			g := PruneTrivialQueries(churnedGraph(t, seed, weighted, false), 2)
			// A mutable graph whose hyperedges all have two or more members.
			m := g.Clone()
			d := NewDelta(m.NumQueries(), m.NumData())
			d.AddHyperedge(0, 1, int32(m.NumData()-1))
			d.AddWeightedHyperedge(2, 2, 3)
			if err := m.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			for _, h := range []*Bipartite{g, m} {
				all := make([]int32, h.NumData())
				for i := range all {
					all[i] = int32(i)
				}
				sub, keptQ := h.InducedByData(all, 2)
				if len(keptQ) != h.NumQueries() {
					t.Fatalf("seed %d: kept %d of %d queries", seed, len(keptQ), h.NumQueries())
				}
				for i, q := range keptQ {
					if q != int32(i) {
						t.Fatalf("seed %d: query %d relabeled to %d", seed, q, i)
					}
				}
				assertEdgeIdentical(t, sub, h)
				if sub.TotalDataWeight() != h.TotalDataWeight() || sub.TotalQueryWeight() != h.TotalQueryWeight() ||
					sub.Weighted() != h.Weighted() || sub.QueryWeighted() != h.QueryWeighted() {
					t.Fatalf("seed %d: weight accessors differ", seed)
				}
			}
		}
	}
}
