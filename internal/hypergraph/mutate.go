package hypergraph

import (
	"fmt"
	"slices"
)

// Graph mutation: the delta layer for dynamic hypergraphs.
//
// Production hypergraphs churn continuously (the paper's Section 5
// "incremental updates": friendships form, ego-nets change, records are
// created), so the partitioner needs a first-class way to say "the graph
// changed" without rebuilding it. A Delta is an ordered batch of structural
// ops — add/remove hyperedge, add data vertex, set data weight — that
// ApplyDelta splices into the adjacency in place:
//
//   - The first mutation converts the packed CSR into the segment layout
//     (start/capacity/live-length per vertex over the same arenas).
//   - Removing a hyperedge zeroes its live length and deletes the query from
//     each member's reverse segment with a short memmove — O(Σ deg(d)) for
//     its members, nothing else is touched.
//   - Adding a hyperedge appends a fresh segment at the forward-arena tail
//     and appends the new query id to each member's reverse segment; a full
//     reverse segment relocates to the arena tail with doubled capacity
//     (amortized O(1) per insertion). New query ids are always larger than
//     existing ones, so reverse lists stay sorted by construction.
//   - Hyperedge membership is immutable once added: edits are expressed as
//     remove + add, which keeps every segment's capacity requirement fixed
//     at creation time (the partitioner's per-query state relies on this).
//
// Every applied op bumps Version; cached derived state (max query degree,
// memoized stats) is maintained or version-tagged so it can never go stale.

// OpKind identifies one structural delta operation.
type OpKind uint8

const (
	// OpAddHyperedge appends a new hyperedge (query vertex) spanning
	// Members. The new query id is assigned densely at build time.
	OpAddHyperedge OpKind = iota
	// OpRemoveHyperedge removes hyperedge Q: its incidences disappear and
	// the query id remains as an empty (degree-0) tombstone, so existing
	// ids never shift.
	OpRemoveHyperedge
	// OpAddData appends a new data vertex with the given Weight.
	OpAddData
	// OpSetDataWeight changes the weight of data vertex D to Weight.
	OpSetDataWeight
)

func (k OpKind) String() string {
	switch k {
	case OpAddHyperedge:
		return "add-hyperedge"
	case OpRemoveHyperedge:
		return "remove-hyperedge"
	case OpAddData:
		return "add-data"
	case OpSetDataWeight:
		return "set-data-weight"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// DeltaOp is one structural operation. Which fields are meaningful depends
// on Kind; ids of added vertices are assigned by the Delta builder (dense,
// in op order) and recorded here.
type DeltaOp struct {
	Kind OpKind
	// Q is the removed hyperedge (OpRemoveHyperedge) or the id assigned to
	// an added one (OpAddHyperedge).
	Q int32
	// D is the target data vertex (OpSetDataWeight) or the id assigned to
	// an added one (OpAddData).
	D int32
	// Weight is the data-vertex weight (OpAddData, OpSetDataWeight) or the
	// query weight of an added hyperedge (0 means 1).
	Weight int32
	// Members are the data vertices of an added hyperedge. They may
	// reference vertices added earlier in the same delta.
	Members []int32
}

// Delta is an ordered batch of structural changes built against a graph
// with known vertex counts. Ids for added vertices are assigned densely at
// build time (BaseData + #adds so far, likewise for queries), so a delta
// can be constructed, serialized, and applied without the graph in hand —
// but only to a graph whose counts match the base, in construction order.
type Delta struct {
	// BaseQueries and BaseData are the vertex counts of the graph this
	// delta was built against; ApplyDelta rejects a mismatch.
	BaseQueries int
	BaseData    int
	// Ops are applied in order.
	Ops []DeltaOp

	addQ int
	addD int
}

// NewDelta starts an empty delta against a graph with the given counts.
func NewDelta(numQueries, numData int) *Delta {
	return &Delta{BaseQueries: numQueries, BaseData: numData}
}

// NewQueries returns the number of hyperedges this delta adds.
func (d *Delta) NewQueries() int { return d.addQ }

// NewData returns the number of data vertices this delta adds.
func (d *Delta) NewData() int { return d.addD }

// Empty reports whether the delta holds no operations.
func (d *Delta) Empty() bool { return len(d.Ops) == 0 }

// AddHyperedge records a new hyperedge spanning the given data vertices and
// returns the query id it will receive. Members may include vertices added
// earlier in this delta; duplicates are removed at apply time.
func (d *Delta) AddHyperedge(members ...int32) int32 {
	return d.AddWeightedHyperedge(1, members...)
}

// AddWeightedHyperedge is AddHyperedge with an explicit query weight.
func (d *Delta) AddWeightedHyperedge(weight int32, members ...int32) int32 {
	q := int32(d.BaseQueries + d.addQ)
	d.addQ++
	d.Ops = append(d.Ops, DeltaOp{
		Kind: OpAddHyperedge, Q: q, Weight: weight,
		Members: slices.Clone(members),
	})
	return q
}

// RemoveHyperedge records the removal of hyperedge q. Removing an already
// empty hyperedge is a no-op (beyond the version bump).
func (d *Delta) RemoveHyperedge(q int32) {
	d.Ops = append(d.Ops, DeltaOp{Kind: OpRemoveHyperedge, Q: q})
}

// AddData records a new data vertex with the given weight (use 1 on
// unweighted graphs) and returns the id it will receive.
func (d *Delta) AddData(weight int32) int32 {
	v := int32(d.BaseData + d.addD)
	d.addD++
	d.Ops = append(d.Ops, DeltaOp{Kind: OpAddData, D: v, Weight: weight})
	return v
}

// SetDataWeight records a weight change for data vertex v. On a previously
// unweighted graph this materializes unit weights for everyone else.
func (d *Delta) SetDataWeight(v, weight int32) {
	d.Ops = append(d.Ops, DeltaOp{Kind: OpSetDataWeight, D: v, Weight: weight})
}

// validate checks every op against a graph with nq queries and nd data
// vertices without mutating anything, so ApplyDelta is atomic: either the
// whole delta applies or the graph is untouched. It returns the counts the
// delta leaves behind. Counts are all validation reads, which is what lets
// CheckChain vet a chain of deltas without a scratch graph.
func (d *Delta) validate(nq, nd int) (int, int, error) {
	if d.BaseQueries != nq || d.BaseData != nd {
		return 0, 0, fmt.Errorf("hypergraph: delta built against %d queries / %d data, graph has %d / %d",
			d.BaseQueries, d.BaseData, nq, nd)
	}
	for i, op := range d.Ops {
		switch op.Kind {
		case OpAddData:
			if op.Weight <= 0 {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d adds data vertex with non-positive weight %d", i, op.Weight)
			}
			if int(op.D) != nd {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d assigns data id %d, expected %d", i, op.D, nd)
			}
			nd++
		case OpAddHyperedge:
			if len(op.Members) == 0 {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d adds an empty hyperedge", i)
			}
			if op.Weight < 0 {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d adds hyperedge with negative weight %d", i, op.Weight)
			}
			if int(op.Q) != nq {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d assigns query id %d, expected %d", i, op.Q, nq)
			}
			for _, m := range op.Members {
				if m < 0 || int(m) >= nd {
					return 0, 0, fmt.Errorf("hypergraph: delta op %d references data %d out of range [0,%d)", i, m, nd)
				}
			}
			nq++
		case OpRemoveHyperedge:
			if op.Q < 0 || int(op.Q) >= nq {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d removes query %d out of range [0,%d)", i, op.Q, nq)
			}
		case OpSetDataWeight:
			if op.D < 0 || int(op.D) >= nd {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d targets data %d out of range [0,%d)", i, op.D, nd)
			}
			if op.Weight <= 0 {
				return 0, 0, fmt.Errorf("hypergraph: delta op %d sets non-positive weight %d", i, op.Weight)
			}
		default:
			return 0, 0, fmt.Errorf("hypergraph: delta op %d has unknown kind %d", i, op.Kind)
		}
	}
	return nq, nd, nil
}

// CheckChain reports whether deltas apply in order on g, each against the
// graph its predecessors leave, without mutating g. ApplyDelta fails only
// where this does, so a chain that passes applies in full; the error names
// the first batch that would fail.
func (g *Bipartite) CheckChain(deltas []*Delta) error {
	nq, nd := g.numQ, g.numD
	for i, d := range deltas {
		var err error
		if nq, nd, err = d.validate(nq, nd); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return nil
}

// ApplyDelta splices the delta into the graph in place, op by op. The call
// is atomic: it validates everything first and only then mutates, bumping
// Version once per op. Not safe for use concurrently with readers.
func (g *Bipartite) ApplyDelta(d *Delta) error {
	if _, _, err := d.validate(g.numQ, g.numD); err != nil {
		return err
	}
	g.ensureMutable()
	for i := range d.Ops {
		op := &d.Ops[i]
		switch op.Kind {
		case OpAddData:
			g.applyAddData(op.Weight)
		case OpAddHyperedge:
			g.applyAddHyperedge(op.Members, op.Weight)
		case OpRemoveHyperedge:
			g.applyRemoveHyperedge(op.Q)
		case OpSetDataWeight:
			g.applySetDataWeight(op.D, op.Weight)
		}
		g.version++
	}
	return nil
}

// ensureMutable converts the packed CSR into the equivalent segment layout
// (live length == capacity for every vertex) on the first mutation. Weight
// arrays are copied so graphs derived from this one before the mutation
// (prunes, induced subproblems) keep their snapshot.
func (g *Bipartite) ensureMutable() {
	if g.qLen != nil {
		return
	}
	g.qStart = make([]int64, g.numQ)
	g.qCap = make([]int32, g.numQ)
	g.qLen = make([]int32, g.numQ)
	for q := 0; q < g.numQ; q++ {
		g.qStart[q] = g.qOff[q]
		n := int32(g.qOff[q+1] - g.qOff[q])
		g.qCap[q] = n
		g.qLen[q] = n
	}
	g.dStart = make([]int64, g.numD)
	g.dCap = make([]int32, g.numD)
	g.dLen = make([]int32, g.numD)
	for dv := 0; dv < g.numD; dv++ {
		g.dStart[dv] = g.dOff[dv]
		n := int32(g.dOff[dv+1] - g.dOff[dv])
		g.dCap[dv] = n
		g.dLen[dv] = n
	}
	g.numE = int64(len(g.qAdj))
	g.qOff, g.dOff = nil, nil
	if g.dWeight != nil {
		g.dWeight = slices.Clone(g.dWeight)
	}
	if g.qWeight != nil {
		g.qWeight = slices.Clone(g.qWeight)
	}
}

func (g *Bipartite) applyAddData(weight int32) {
	g.dStart = append(g.dStart, int64(len(g.dAdj)))
	g.dCap = append(g.dCap, 0)
	g.dLen = append(g.dLen, 0)
	if g.dWeight == nil && weight != 1 {
		g.materializeDataWeights()
	}
	if g.dWeight != nil {
		g.dWeight = append(g.dWeight, weight)
	}
	g.numD++
}

func (g *Bipartite) applySetDataWeight(v, weight int32) {
	if g.dWeight == nil {
		if weight == 1 {
			return
		}
		g.materializeDataWeights()
	}
	g.dWeight[v] = weight
}

// materializeDataWeights switches an unweighted graph to explicit unit
// weights so one vertex's weight can diverge.
func (g *Bipartite) materializeDataWeights() {
	g.dWeight = make([]int32, g.numD)
	for i := range g.dWeight {
		g.dWeight[i] = 1
	}
}

func (g *Bipartite) applyAddHyperedge(members []int32, weight int32) {
	ms := slices.Clone(members)
	slices.Sort(ms)
	ms = slices.Compact(ms)
	q := int32(g.numQ)
	g.qStart = append(g.qStart, int64(len(g.qAdj)))
	g.qCap = append(g.qCap, int32(len(ms)))
	g.qLen = append(g.qLen, int32(len(ms)))
	g.qAdj = append(g.qAdj, ms...)
	if weight == 0 {
		weight = 1
	}
	if g.qWeight == nil && weight != 1 {
		g.qWeight = make([]int32, g.numQ)
		for i := range g.qWeight {
			g.qWeight[i] = 1
		}
	}
	if g.qWeight != nil {
		g.qWeight = append(g.qWeight, weight)
	}
	g.numQ++
	for _, dv := range ms {
		g.reverseAppend(dv, q)
	}
	g.numE += int64(len(ms))
	switch {
	case len(ms) > g.maxQDeg:
		g.maxQDeg = len(ms)
		g.maxQDegCount = 1
	case len(ms) == g.maxQDeg:
		g.maxQDegCount++
	}
}

// reverseAppend inserts query q at the end of data vertex dv's live reverse
// segment. q is always the largest query id in the graph at insertion time,
// so appending preserves sorted order. A full segment relocates to the arena
// tail with doubled capacity; the vacated slots become garbage (bounded by
// the doubling schedule, reclaimed by Clone-free rebuilds if ever needed).
func (g *Bipartite) reverseAppend(dv, q int32) {
	if g.dLen[dv] == g.dCap[dv] {
		newCap := g.dCap[dv] * 2
		if newCap < 4 {
			newCap = 4
		}
		start := int64(len(g.dAdj))
		g.dAdj = append(g.dAdj, g.dAdj[g.dStart[dv]:g.dStart[dv]+int64(g.dLen[dv])]...)
		g.dAdj = append(g.dAdj, make([]int32, newCap-g.dLen[dv])...)
		g.dStart[dv] = start
		g.dCap[dv] = newCap
	}
	g.dAdj[g.dStart[dv]+int64(g.dLen[dv])] = q
	g.dLen[dv]++
}

func (g *Bipartite) applyRemoveHyperedge(q int32) {
	deg := g.qLen[q]
	if deg == 0 {
		return
	}
	members := g.qAdj[g.qStart[q] : g.qStart[q]+int64(deg)]
	for _, dv := range members {
		g.reverseRemove(dv, q)
	}
	g.qLen[q] = 0
	g.numE -= int64(deg)
	if int(deg) == g.maxQDeg {
		g.maxQDegCount--
		if g.maxQDegCount == 0 {
			g.computeMaxQueryDegree()
		}
	}
}

// reverseRemove deletes query q from data vertex dv's live reverse segment.
func (g *Bipartite) reverseRemove(dv, q int32) {
	s := g.dStart[dv]
	n := int64(g.dLen[dv])
	seg := g.dAdj[s : s+n]
	i, j := 0, len(seg)
	for i < j {
		h := (i + j) / 2
		if seg[h] < q {
			i = h + 1
		} else {
			j = h
		}
	}
	if i >= len(seg) || seg[i] != q {
		//shp:panics(invariant: forward and reverse adjacency must stay mirrored; continuing would corrupt the graph)
		panic(fmt.Sprintf("hypergraph: reverse adjacency of data %d lost query %d", dv, q))
	}
	copy(seg[i:], seg[i+1:])
	g.dLen[dv]--
}

// Clone returns a deep copy of the graph in its current layout. Mutating
// either copy never affects the other.
func (g *Bipartite) Clone() *Bipartite {
	cp := &Bipartite{
		numQ:         g.numQ,
		numD:         g.numD,
		numE:         g.numE,
		version:      g.version,
		maxQDeg:      g.maxQDeg,
		maxQDegCount: g.maxQDegCount,
		qOff:         slices.Clone(g.qOff),
		dOff:         slices.Clone(g.dOff),
		qAdj:         slices.Clone(g.qAdj),
		dAdj:         slices.Clone(g.dAdj),
		qStart:       slices.Clone(g.qStart),
		qCap:         slices.Clone(g.qCap),
		qLen:         slices.Clone(g.qLen),
		dStart:       slices.Clone(g.dStart),
		dCap:         slices.Clone(g.dCap),
		dLen:         slices.Clone(g.dLen),
		dWeight:      slices.Clone(g.dWeight),
		qWeight:      slices.Clone(g.qWeight),
	}
	return cp
}
