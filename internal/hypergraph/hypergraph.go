// Package hypergraph implements the bipartite query–data representation of a
// hypergraph used throughout the paper (Section 1, Figure 1).
//
// A hypergraph with vertex set D and hyperedges Q is stored as an undirected
// bipartite graph G = (Q ∪ D, E): each query vertex q corresponds to one
// hyperedge spanning exactly the data vertices adjacent to q. Build produces
// a compact compressed sparse row (CSR) layout in both directions, which is
// what the partitioner's two passes (per-query neighbor-data aggregation,
// per-data gain computation) need.
//
// Graphs can also evolve after construction: ApplyDelta splices hyperedge
// additions/removals, new data vertices, and weight changes into the
// adjacency in place (see mutate.go). The first mutation switches the graph
// from the packed CSR to an equivalent segment layout with spare capacity;
// all accessors work identically on both.
package hypergraph

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"shp/internal/par"
)

// Bipartite is a bipartite graph between queries (hyperedges) and data
// vertices. Vertex ids are dense: queries are 0..NumQueries-1 and data
// vertices 0..NumData-1, in separate id spaces.
//
// Two internal layouts exist. Compact (what Build produces): classic CSR,
// the live adjacency of vertex x is qAdj[qOff[x]:qOff[x+1]]. Mutable
// (entered by the first ApplyDelta): every vertex owns an arena segment
// [qStart[x], qStart[x]+qCap[x]) of which the first qLen[x] slots are live,
// so hyperedges can be removed (len drops to 0, capacity stays) and
// adjacency lists can grow (segments relocate to the arena tail with
// amortized doubling) without rewriting the arrays. Accessors are layout
// independent; concurrent readers are safe in either layout as long as no
// mutation is in flight.
type Bipartite struct {
	numQ int
	numD int

	// Compact layout: CSR from queries to data (qAdj[qOff[q]:qOff[q+1]] are
	// the data vertices of hyperedge q, sorted ascending) and from data to
	// queries. nil in mutable layout.
	qOff []int64
	dOff []int64

	// Adjacency arenas, shared by both layouts.
	qAdj []int32
	dAdj []int32

	// Mutable layout: per-vertex segment start/capacity/live length over the
	// arenas. nil in compact layout; qLen != nil identifies mutable mode.
	qStart []int64
	qCap   []int32
	qLen   []int32
	dStart []int64
	dCap   []int32
	dLen   []int32

	// numE is the live incidence count in mutable layout (compact layout
	// derives it from len(qAdj)).
	numE int64

	// version counts mutations: it is bumped by every applied delta op, so
	// any state derived from the graph can be tagged with the version it was
	// computed at and checked for staleness (Validate asserts the internal
	// caches below are fresh).
	version uint64

	// Optional per-data-vertex weights; nil means unit weights.
	dWeight []int32

	// Optional per-query (hyperedge) weights; nil means unit weights.
	// Weighted queries contribute proportionally to fanout objectives —
	// useful when hyperedges represent query classes with different rates.
	qWeight []int32

	// maxQDeg caches the largest hyperedge size. Every refiner construction
	// (including each recursive bisection node) sizes its gain tables from
	// it, so it is computed once at Build/rebuildReverse time instead of
	// rescanning all queries per lookup. Mutations keep it current eagerly:
	// insertions grow it in O(1), and maxQDegCount — the number of
	// hyperedges currently at the maximum — defers the O(|Q|) rescan on
	// removal until the last max-degree hyperedge actually disappears
	// (uniform-degree graphs would otherwise rescan on every removal).
	maxQDeg      int
	maxQDegCount int

	// statsCache memoizes ComputeStats at statsVersion; a version mismatch
	// triggers recomputation, so mutation can never serve stale stats.
	statsMu      sync.Mutex
	statsCache   *Stats
	statsVersion uint64
}

// Edge is a (query, data) incidence.
type Edge struct {
	Q int32
	D int32
}

// NumQueries returns |Q|, the number of hyperedges.
func (g *Bipartite) NumQueries() int { return g.numQ }

// NumData returns |D|, the number of data vertices.
func (g *Bipartite) NumData() int { return g.numD }

// NumEdges returns |E|, the number of live incidences (sum of hyperedge
// sizes).
func (g *Bipartite) NumEdges() int64 {
	if g.qLen != nil {
		return g.numE
	}
	return int64(len(g.qAdj))
}

// Version returns the mutation counter: 0 for a freshly built graph, bumped
// by every delta op ApplyDelta splices in. Derived state (assignments,
// cached stats, partitioner sessions) can be tagged with the version it was
// computed at to detect staleness.
func (g *Bipartite) Version() uint64 { return g.version }

// QueryNeighbors returns the data vertices of hyperedge q as a shared slice;
// callers must not modify it.
func (g *Bipartite) QueryNeighbors(q int32) []int32 {
	if g.qLen != nil {
		s := g.qStart[q]
		return g.qAdj[s : s+int64(g.qLen[q])]
	}
	return g.qAdj[g.qOff[q]:g.qOff[q+1]]
}

// DataNeighbors returns the queries adjacent to data vertex d as a shared
// slice; callers must not modify it.
func (g *Bipartite) DataNeighbors(d int32) []int32 {
	if g.dLen != nil {
		s := g.dStart[d]
		return g.dAdj[s : s+int64(g.dLen[d])]
	}
	return g.dAdj[g.dOff[d]:g.dOff[d+1]]
}

// QueryDegree returns the size of hyperedge q.
func (g *Bipartite) QueryDegree(q int32) int {
	if g.qLen != nil {
		return int(g.qLen[q])
	}
	return int(g.qOff[q+1] - g.qOff[q])
}

// DataDegree returns the number of hyperedges containing data vertex d.
func (g *Bipartite) DataDegree(d int32) int {
	if g.dLen != nil {
		return int(g.dLen[d])
	}
	return int(g.dOff[d+1] - g.dOff[d])
}

// DataWeight returns the weight of data vertex d (1 if unweighted).
func (g *Bipartite) DataWeight(d int32) int32 {
	if g.dWeight == nil {
		return 1
	}
	return g.dWeight[d]
}

// Weighted reports whether the graph carries non-unit data-vertex weights.
func (g *Bipartite) Weighted() bool { return g.dWeight != nil }

// QueryWeight returns the weight of hyperedge q (1 if unweighted).
func (g *Bipartite) QueryWeight(q int32) int32 {
	if g.qWeight == nil {
		return 1
	}
	return g.qWeight[q]
}

// QueryWeighted reports whether the graph carries non-unit query weights.
func (g *Bipartite) QueryWeighted() bool { return g.qWeight != nil }

// TotalQueryWeight returns the sum of query weights.
func (g *Bipartite) TotalQueryWeight() int64 {
	if g.qWeight == nil {
		return int64(g.numQ)
	}
	var sum int64
	for _, w := range g.qWeight {
		sum += int64(w)
	}
	return sum
}

// TotalDataWeight returns the sum of data vertex weights.
func (g *Bipartite) TotalDataWeight() int64 {
	if g.dWeight == nil {
		return int64(g.numD)
	}
	var sum int64
	for _, w := range g.dWeight {
		sum += int64(w)
	}
	return sum
}

// MaxQueryDegree returns the largest hyperedge size (0 for empty graphs).
// The value is cached at construction time.
func (g *Bipartite) MaxQueryDegree() int { return g.maxQDeg }

// computeMaxQueryDegree rescans all query degrees (and how many hyperedges
// sit at the maximum); called whenever the forward adjacency is
// (re)assembled and when a mutation removes the last max-degree hyperedge.
func (g *Bipartite) computeMaxQueryDegree() {
	maxDeg, count := 0, 0
	for q := 0; q < g.numQ; q++ {
		switch d := g.QueryDegree(int32(q)); {
		case d > maxDeg:
			maxDeg = d
			count = 1
		case d == maxDeg:
			count++
		}
	}
	g.maxQDeg = maxDeg
	g.maxQDegCount = count
}

// Edges returns all incidences. Intended for tests and small graphs.
func (g *Bipartite) Edges() []Edge {
	out := make([]Edge, 0, len(g.qAdj))
	for q := 0; q < g.numQ; q++ {
		for _, d := range g.QueryNeighbors(int32(q)) {
			out = append(out, Edge{Q: int32(q), D: d})
		}
	}
	return out
}

// Stats summarizes the graph for dataset tables.
type Stats struct {
	NumQueries   int
	NumData      int
	NumEdges     int64
	AvgQueryDeg  float64
	MaxQueryDeg  int
	AvgDataDeg   float64
	MaxDataDeg   int
	IsolatedData int // data vertices in no hyperedge
}

// ComputeStats returns summary statistics, scanning the graph once and
// memoizing the result per mutation version: a second call on an unchanged
// graph is free, and any mutation invalidates the cache (ApplyDelta bumps
// Version, so a stale result can never be served).
func (g *Bipartite) ComputeStats() Stats {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	if g.statsCache != nil && g.statsVersion == g.version {
		return *g.statsCache
	}
	s := g.computeStats()
	g.statsCache = &s
	g.statsVersion = g.version
	return s
}

// computeStats is the uncached scan behind ComputeStats.
func (g *Bipartite) computeStats() Stats {
	s := Stats{NumQueries: g.numQ, NumData: g.numD, NumEdges: g.NumEdges()}
	for q := 0; q < g.numQ; q++ {
		if d := g.QueryDegree(int32(q)); d > s.MaxQueryDeg {
			s.MaxQueryDeg = d
		}
	}
	for d := 0; d < g.numD; d++ {
		deg := g.DataDegree(int32(d))
		if deg > s.MaxDataDeg {
			s.MaxDataDeg = deg
		}
		if deg == 0 {
			s.IsolatedData++
		}
	}
	if g.numQ > 0 {
		s.AvgQueryDeg = float64(s.NumEdges) / float64(g.numQ)
	}
	if g.numD > 0 {
		s.AvgDataDeg = float64(s.NumEdges) / float64(g.numD)
	}
	return s
}

// Validate checks internal adjacency invariants — offset/segment layout,
// strict sortedness, forward/reverse symmetry (mutable layout) — plus the
// freshness of every cached derived value (max query degree and memoized
// stats must match a from-scratch recomputation at the current Version).
// It is used by tests and by the file loaders; a healthy Build or ApplyDelta
// never produces an invalid graph.
func (g *Bipartite) Validate() error {
	if g.qLen != nil {
		if err := g.validateMutableLayout(); err != nil {
			return err
		}
	} else {
		if err := g.validateCompactLayout(); err != nil {
			return err
		}
	}
	for q := 0; q < g.numQ; q++ {
		prev := int32(-1)
		for _, d := range g.QueryNeighbors(int32(q)) {
			if d < 0 || int(d) >= g.numD {
				return fmt.Errorf("hypergraph: query %d references data %d out of range", q, d)
			}
			if d <= prev {
				return fmt.Errorf("hypergraph: query %d adjacency not strictly sorted", q)
			}
			prev = d
		}
	}
	for d := 0; d < g.numD; d++ {
		prev := int32(-1)
		for _, q := range g.DataNeighbors(int32(d)) {
			if q < 0 || int(q) >= g.numQ {
				return fmt.Errorf("hypergraph: data %d references query %d out of range", d, q)
			}
			if q <= prev {
				return fmt.Errorf("hypergraph: data %d adjacency not strictly sorted", d)
			}
			prev = q
		}
	}
	if g.qLen != nil {
		// In the mutable layout the two directions evolve independently, so
		// check full symmetry: every live (q, d) incidence must appear in
		// the reverse adjacency too (counts being equal then implies the
		// reverse holds as well).
		for q := 0; q < g.numQ; q++ {
			for _, d := range g.QueryNeighbors(int32(q)) {
				ns := g.DataNeighbors(d)
				if i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(q) }); i >= len(ns) || ns[i] != int32(q) {
					return fmt.Errorf("hypergraph: incidence (%d, %d) missing from reverse adjacency", q, d)
				}
			}
		}
	}
	// Cached-value freshness: mutation maintains maxQDeg eagerly and tags
	// the stats memo with the version it was computed at; both must match a
	// recomputation or some mutation path failed to invalidate them.
	maxDeg, maxCount := 0, 0
	for q := 0; q < g.numQ; q++ {
		switch d := g.QueryDegree(int32(q)); {
		case d > maxDeg:
			maxDeg = d
			maxCount = 1
		case d == maxDeg:
			maxCount++
		}
	}
	if maxDeg != g.maxQDeg {
		return fmt.Errorf("hypergraph: cached max query degree %d stale (actual %d at version %d)", g.maxQDeg, maxDeg, g.version)
	}
	if maxDeg > 0 && maxCount != g.maxQDegCount {
		return fmt.Errorf("hypergraph: cached max-degree count %d stale (actual %d at version %d)", g.maxQDegCount, maxCount, g.version)
	}
	g.statsMu.Lock()
	cached, cachedVersion := g.statsCache, g.statsVersion
	g.statsMu.Unlock()
	if cached != nil && cachedVersion == g.version {
		if fresh := g.computeStats(); *cached != fresh {
			return fmt.Errorf("hypergraph: cached stats stale at version %d: %+v != %+v", g.version, *cached, fresh)
		}
	}
	if g.dWeight != nil {
		if len(g.dWeight) != g.numD {
			return errors.New("hypergraph: weight array length mismatch")
		}
		for d, w := range g.dWeight {
			if w <= 0 {
				return fmt.Errorf("hypergraph: non-positive weight %d at data vertex %d", w, d)
			}
		}
	}
	if g.qWeight != nil {
		if len(g.qWeight) != g.numQ {
			return errors.New("hypergraph: query weight array length mismatch")
		}
		for q, w := range g.qWeight {
			if w <= 0 {
				return fmt.Errorf("hypergraph: non-positive weight %d at query %d", w, q)
			}
		}
	}
	return nil
}

// validateCompactLayout checks the packed-CSR offset invariants.
func (g *Bipartite) validateCompactLayout() error {
	if len(g.qOff) != g.numQ+1 || len(g.dOff) != g.numD+1 {
		return errors.New("hypergraph: offset array length mismatch")
	}
	if g.qOff[0] != 0 || g.dOff[0] != 0 {
		return errors.New("hypergraph: offsets must start at 0")
	}
	if g.qOff[g.numQ] != int64(len(g.qAdj)) || g.dOff[g.numD] != int64(len(g.dAdj)) {
		return errors.New("hypergraph: offsets must end at adjacency length")
	}
	if len(g.qAdj) != len(g.dAdj) {
		return fmt.Errorf("hypergraph: asymmetric edge counts %d vs %d", len(g.qAdj), len(g.dAdj))
	}
	for q := 0; q < g.numQ; q++ {
		if g.qOff[q] > g.qOff[q+1] {
			return fmt.Errorf("hypergraph: decreasing query offsets at %d", q)
		}
	}
	for d := 0; d < g.numD; d++ {
		if g.dOff[d] > g.dOff[d+1] {
			return fmt.Errorf("hypergraph: decreasing data offsets at %d", d)
		}
	}
	return nil
}

// validateMutableLayout checks the segment arrays of a mutated graph:
// consistent lengths, every segment inside its arena with live length within
// capacity, no two live segments overlapping, and live totals matching the
// maintained incidence count on both sides.
func (g *Bipartite) validateMutableLayout() error {
	if len(g.qStart) != g.numQ || len(g.qCap) != g.numQ || len(g.qLen) != g.numQ {
		return errors.New("hypergraph: query segment array length mismatch")
	}
	if len(g.dStart) != g.numD || len(g.dCap) != g.numD || len(g.dLen) != g.numD {
		return errors.New("hypergraph: data segment array length mismatch")
	}
	check := func(side string, n int, start []int64, capv, live []int32, arena []int32) (int64, error) {
		type seg struct{ start, end int64 }
		segs := make([]seg, 0, n)
		var total int64
		for i := 0; i < n; i++ {
			if live[i] < 0 || capv[i] < 0 || live[i] > capv[i] {
				return 0, fmt.Errorf("hypergraph: %s segment %d has live %d capacity %d", side, i, live[i], capv[i])
			}
			if start[i] < 0 || start[i]+int64(capv[i]) > int64(len(arena)) {
				return 0, fmt.Errorf("hypergraph: %s segment %d [%d,+%d) outside arena of %d", side, i, start[i], capv[i], len(arena))
			}
			if capv[i] > 0 {
				segs = append(segs, seg{start[i], start[i] + int64(capv[i])})
			}
			total += int64(live[i])
		}
		sort.Slice(segs, func(a, b int) bool { return segs[a].start < segs[b].start })
		for i := 1; i < len(segs); i++ {
			if segs[i].start < segs[i-1].end {
				return 0, fmt.Errorf("hypergraph: overlapping %s segments at arena offset %d", side, segs[i].start)
			}
		}
		return total, nil
	}
	qTotal, err := check("query", g.numQ, g.qStart, g.qCap, g.qLen, g.qAdj)
	if err != nil {
		return err
	}
	dTotal, err := check("data", g.numD, g.dStart, g.dCap, g.dLen, g.dAdj)
	if err != nil {
		return err
	}
	if qTotal != g.numE || dTotal != g.numE {
		return fmt.Errorf("hypergraph: live totals %d/%d disagree with edge count %d", qTotal, dTotal, g.numE)
	}
	return nil
}

// Builder accumulates incidences and produces an immutable Bipartite.
// Duplicate (q, d) incidences are removed by Build.
type Builder struct {
	numQ     int
	numD     int
	edges    []Edge
	weights  []int32
	qWeights []int32
}

// NewBuilder creates a builder for a graph with the given vertex counts.
func NewBuilder(numQueries, numData int) *Builder {
	return &Builder{numQ: numQueries, numD: numData}
}

// AddEdge records that hyperedge q contains data vertex d.
func (b *Builder) AddEdge(q, d int32) *Builder {
	b.edges = append(b.edges, Edge{Q: q, D: d})
	return b
}

// AddHyperedge records that hyperedge q contains all the given data vertices.
func (b *Builder) AddHyperedge(q int32, data ...int32) *Builder {
	for _, d := range data {
		b.AddEdge(q, d)
	}
	return b
}

// SetDataWeights attaches per-data-vertex weights (length must be numData).
func (b *Builder) SetDataWeights(w []int32) *Builder {
	b.weights = w
	return b
}

// SetQueryWeights attaches per-hyperedge weights (length must be
// numQueries).
func (b *Builder) SetQueryWeights(w []int32) *Builder {
	b.qWeights = w
	return b
}

// Build validates ids, deduplicates incidences, and assembles CSR in both
// directions. The builder can be reused afterwards.
func (b *Builder) Build() (*Bipartite, error) {
	if b.numQ < 0 || b.numD < 0 {
		return nil, errors.New("hypergraph: negative vertex count")
	}
	for _, e := range b.edges {
		if e.Q < 0 || int(e.Q) >= b.numQ {
			return nil, fmt.Errorf("hypergraph: query id %d out of range [0,%d)", e.Q, b.numQ)
		}
		if e.D < 0 || int(e.D) >= b.numD {
			return nil, fmt.Errorf("hypergraph: data id %d out of range [0,%d)", e.D, b.numD)
		}
	}
	if b.weights != nil && len(b.weights) != b.numD {
		return nil, fmt.Errorf("hypergraph: %d weights for %d data vertices", len(b.weights), b.numD)
	}
	if b.qWeights != nil && len(b.qWeights) != b.numQ {
		return nil, fmt.Errorf("hypergraph: %d query weights for %d queries", len(b.qWeights), b.numQ)
	}
	g := &Bipartite{numQ: b.numQ, numD: b.numD}
	if b.weights != nil {
		g.dWeight = make([]int32, b.numD)
		copy(g.dWeight, b.weights)
	}
	if b.qWeights != nil {
		g.qWeight = make([]int32, b.numQ)
		copy(g.qWeight, b.qWeights)
	}

	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Q != edges[j].Q {
			return edges[i].Q < edges[j].Q
		}
		return edges[i].D < edges[j].D
	})
	// Deduplicate.
	uniq := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	edges = uniq

	g.qOff = make([]int64, b.numQ+1)
	g.qAdj = make([]int32, len(edges))
	for _, e := range edges {
		g.qOff[e.Q+1]++
	}
	for q := 0; q < b.numQ; q++ {
		g.qOff[q+1] += g.qOff[q]
	}
	for i, e := range edges {
		g.qAdj[i] = e.D // edges sorted by (Q, D): positions align with qOff
		_ = i
	}

	// Reverse CSR via counting sort on data id.
	g.dOff = make([]int64, b.numD+1)
	g.dAdj = make([]int32, len(edges))
	for _, e := range edges {
		g.dOff[e.D+1]++
	}
	for d := 0; d < b.numD; d++ {
		g.dOff[d+1] += g.dOff[d]
	}
	cursor := make([]int64, b.numD)
	copy(cursor, g.dOff[:b.numD])
	for _, e := range edges { // edges sorted by Q, so each dAdj list ends up sorted by Q
		g.dAdj[cursor[e.D]] = e.Q
		cursor[e.D]++
	}
	g.computeMaxQueryDegree()
	return g, nil
}

// FromEdges is a convenience constructor from an incidence list.
func FromEdges(numQueries, numData int, edges []Edge) (*Bipartite, error) {
	b := NewBuilder(numQueries, numData)
	b.edges = append(b.edges, edges...)
	return b.Build()
}

// FromHyperedges builds a graph from explicit hyperedge vertex lists. The
// number of data vertices is inferred as max id + 1 unless numData is larger.
func FromHyperedges(numData int, hyperedges [][]int32) (*Bipartite, error) {
	maxD := numData - 1
	total := 0
	for _, he := range hyperedges {
		total += len(he)
		for _, d := range he {
			if int(d) > maxD {
				maxD = int(d)
			}
		}
	}
	b := NewBuilder(len(hyperedges), maxD+1)
	b.edges = make([]Edge, 0, total)
	for q, he := range hyperedges {
		for _, d := range he {
			b.AddEdge(int32(q), d)
		}
	}
	return b.Build()
}

// PruneTrivialQueries returns a graph with hyperedges of size < minDegree
// removed (the paper removes isolated and degree-one queries, which have
// fanout 1 under every partition and only add noise to the objective).
// Data vertices are preserved, including any that become isolated.
func PruneTrivialQueries(g *Bipartite, minDegree int) *Bipartite {
	keep := make([]int32, 0, g.numQ)
	for q := 0; q < g.numQ; q++ {
		if g.QueryDegree(int32(q)) >= minDegree {
			keep = append(keep, int32(q))
		}
	}
	if len(keep) == g.numQ {
		return g
	}
	out := &Bipartite{numQ: len(keep), numD: g.numD, dWeight: g.dWeight}
	if g.qWeight != nil {
		out.qWeight = make([]int32, len(keep))
		for i, q := range keep {
			out.qWeight[i] = g.qWeight[q]
		}
	}
	out.qOff = make([]int64, len(keep)+1)
	var total int64
	for i, q := range keep {
		total += int64(g.QueryDegree(q))
		out.qOff[i+1] = total
	}
	out.qAdj = make([]int32, total)
	par.For(len(keep), 0, func(start, end int) {
		for i := start; i < end; i++ {
			copy(out.qAdj[out.qOff[i]:out.qOff[i+1]], g.QueryNeighbors(keep[i]))
		}
	})
	out.rebuildReverse()
	return out
}

// InducedByData returns the subgraph induced by the given data vertices:
// data vertices are relabeled 0..len(dataIDs)-1 in the given order, and only
// hyperedges with at least minQueryDegree members inside the subset are kept
// (relabeled densely, in ascending original id order). It returns the
// subgraph and the kept original query ids aligned with the new query ids.
// dataIDs must be distinct.
//
// The cost is the subset's incidences (a count pass and a fill pass over
// their reverse lists) plus O(|Q|) over the parent's query counts, so the
// disjoint subsets of one recursion level cost O(|E|) together. The result
// is compact, and its adjacency lists are ascending in both directions
// whatever the order of dataIDs.
//
// This is the substrate for recursive bisection: each recursion step operates
// on the compact induced problem (Section 3.3, "Recursive partitioning").
func (g *Bipartite) InducedByData(dataIDs []int32, minQueryDegree int) (*Bipartite, []int32) {
	// Count pass: per-query membership inside the subset.
	qmap := make([]int32, g.numQ)
	for _, d := range dataIDs {
		for _, q := range g.DataNeighbors(d) {
			qmap[q]++
		}
	}
	// Turn the counts into the monotone query map (old id -> new id, or -1)
	// and lay out the forward offsets. qOff[i+1] starts as query i's first
	// slot and serves as its fill cursor, so it ends at the slot after its
	// last one — the CSR offset — once the fill pass below is done.
	kept := 0
	for _, c := range qmap {
		if int(c) >= minQueryDegree {
			kept++
		}
	}
	keptQ := make([]int32, 0, kept)
	qOff := make([]int64, 1, kept+1)
	var total int64
	for q, c := range qmap {
		if int(c) < minQueryDegree {
			qmap[q] = -1
			continue
		}
		qmap[q] = int32(len(keptQ))
		keptQ = append(keptQ, int32(q))
		qOff = append(qOff, total)
		total += int64(c)
	}
	out := &Bipartite{numQ: len(keptQ), numD: len(dataIDs), qOff: qOff}
	out.qAdj = make([]int32, total)
	out.dAdj = make([]int32, 0, total)
	out.dOff = make([]int64, len(dataIDs)+1)
	// Fill pass, in ascending new data id: each data vertex's mapped reverse
	// list stays ascending (the map is monotone), and appending the data id
	// to each of its queries keeps every forward list ascending too.
	for i, d := range dataIDs {
		for _, q := range g.DataNeighbors(d) {
			if nq := qmap[q]; nq >= 0 {
				out.dAdj = append(out.dAdj, nq)
				out.qAdj[qOff[nq+1]] = int32(i)
				qOff[nq+1]++
			}
		}
		out.dOff[i+1] = int64(len(out.dAdj))
	}
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
	out.computeMaxQueryDegree()
	return out, keptQ
}

// rebuildReverse recomputes the data->query CSR from the query->data CSR,
// along with the cached maximum query degree.
func (g *Bipartite) rebuildReverse() {
	g.computeMaxQueryDegree()
	g.dOff = make([]int64, g.numD+1)
	g.dAdj = make([]int32, len(g.qAdj))
	for _, d := range g.qAdj {
		g.dOff[d+1]++
	}
	for d := 0; d < g.numD; d++ {
		g.dOff[d+1] += g.dOff[d]
	}
	cursor := make([]int64, g.numD)
	copy(cursor, g.dOff[:g.numD])
	for q := 0; q < g.numQ; q++ {
		for _, d := range g.QueryNeighbors(int32(q)) {
			g.dAdj[cursor[d]] = int32(q)
			cursor[d]++
		}
	}
}
