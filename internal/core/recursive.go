package core

import (
	"sync"

	"shp/internal/hypergraph"
	"shp/internal/par"
	"shp/internal/partition"
	"shp/internal/rng"
)

// Partition runs SHP on g and returns the bucket assignment for the data
// vertices. It dispatches on Options.Direct: direct k-way refinement
// (SHP-k) or recursive partitioning (Branching = 2 is SHP-2, the
// open-sourced variant).
//
// Partition is a thin wrapper over a single-use Session; callers that keep
// the graph alive and re-partition it as it changes should hold on to a
// Session (NewSession) instead.
func Partition(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	s, err := NewSession(g, opts)
	if err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// rtask is one recursion node: split the given data vertices (original ids)
// over the bucket range [lo, hi).
type rtask struct {
	data []int32
	lo   int32
	hi   int32
}

// partitionRecursive implements recursive r-way partitioning. Each level
// splits every active task's data vertices into r (nearly) even bucket
// ranges with a bisection (r == 2) or a small direct refinement (r > 2) on
// the induced subproblem, with Section 3.4's lookahead and ε scheduling.
func partitionRecursive(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	nd := g.NumData()
	assignment := make(partition.Assignment, nd)
	res := &Result{K: opts.K}

	if opts.K == 1 {
		res.Assignment = assignment
		return res, nil
	}

	all := make([]int32, nd)
	for i := range all {
		all[i] = int32(i)
	}
	tasks := []rtask{{data: all, lo: 0, hi: int32(opts.K)}}
	totalLevels := levelsFor(opts.K, opts.Branching)
	idealPerBucket := float64(g.TotalDataWeight()) / float64(opts.K)

	for level := 0; len(tasks) > 0; level++ {
		eps := opts.Epsilon
		if !opts.DisableEpsilonScaling && totalLevels > 0 {
			// Section 3.4: grant ε scaled by the share of recursive splits
			// done once this level completes, so early levels stay tight
			// and do not strangle later movement.
			eps = opts.Epsilon * float64(level+1) / float64(totalLevels)
		}

		type taskOut struct {
			children []rtask
			history  []IterStats
			work     []WorkStats
			iters    int
		}
		outs := make([]taskOut, len(tasks))

		runTask := func(ti int, innerWorkers int) {
			t := tasks[ti]
			topts := opts
			topts.Parallelism = innerWorkers
			seed := rng.Mix(opts.Seed, rng.Mix(uint64(level)+1, uint64(t.lo)))
			children, hist, work, iters := splitTask(g, topts, t, seed, level, eps, idealPerBucket, assignment)
			outs[ti] = taskOut{children: children, history: hist, work: work, iters: iters}
		}

		workers := par.Workers(opts.Parallelism)
		if len(tasks) >= workers {
			// Many small tasks: parallelize across tasks.
			var wg sync.WaitGroup
			sem := make(chan struct{}, workers)
			for ti := range tasks {
				wg.Add(1)
				sem <- struct{}{}
				go func(ti int) {
					defer wg.Done()
					defer func() { <-sem }()
					runTask(ti, 1)
				}(ti)
			}
			wg.Wait()
		} else {
			for ti := range tasks {
				runTask(ti, opts.Parallelism)
			}
		}

		var next []rtask
		for ti := range outs {
			res.History = append(res.History, outs[ti].history...)
			res.Work = append(res.Work, outs[ti].work...)
			res.Iterations += outs[ti].iters
			next = append(next, outs[ti].children...)
		}
		tasks = next
	}

	res.Assignment = assignment
	return res, nil
}

// incrementalMinSize is the subproblem size below which recursion nodes fall
// back to full per-iteration recomputation: on tiny induced graphs the
// frontier bookkeeping (active/dirty arrays, proposal caches) costs more
// than the full sweeps it avoids. The switch is free to make per node
// because the incremental and full paths produce byte-identical partitions
// (see TestIncrementalMatchesFull* in incremental_test.go).
const incrementalMinSize = 2048

// splitTask splits one recursion node. Leaf ranges assign directly; binary
// ranges run a bisection; wider ranges with Branching > 2 run an r-way
// direct refinement on the induced subproblem. Children needing further
// splitting are returned.
func splitTask(g *hypergraph.Bipartite, opts Options, t rtask, seed uint64,
	level int, eps, idealPerBucket float64, assignment partition.Assignment) ([]rtask, []IterStats, []WorkStats, int) {

	if !opts.DisableIncremental && len(t.data) < incrementalMinSize {
		opts.DisableIncremental = true
	}
	span := int(t.hi - t.lo)
	if span <= 1 {
		for _, d := range t.data {
			assignment[d] = t.lo
		}
		return nil, nil, nil, 0
	}
	r := opts.Branching
	if r > span {
		r = span
	}
	if len(t.data) == 0 {
		return nil, nil, nil, 0
	}

	sub := g
	if !coversGraph(g, t) {
		sub, _ = g.InducedByData(t.data, 2)
	}

	if r == 2 {
		kLeft := (span + 1) / 2
		kRight := span - kLeft
		propLeft := float64(kLeft) / float64(span)
		home := warmStartSides(opts, t, int32(kLeft))
		b := newBisection(sub, opts, seed, level, int(t.lo), kLeft, kRight, propLeft, eps, idealPerBucket, home)
		side := b.run()

		nLeft := 0
		for _, s := range side {
			if s == 0 {
				nLeft++
			}
		}
		left := make([]int32, 0, nLeft)
		right := make([]int32, 0, len(side)-nLeft)
		for i, d := range t.data {
			if side[i] == 0 {
				left = append(left, d)
			} else {
				right = append(right, d)
			}
		}
		mid := t.lo + int32(kLeft)
		children := childTasks(assignment,
			rtask{data: left, lo: t.lo, hi: mid},
			rtask{data: right, lo: mid, hi: t.hi})
		return children, b.history, b.work, len(b.history)
	}

	// r-way split via the direct refiner on the subproblem, with each child
	// bucket lookahead-weighted by its final span.
	spans := evenSpans(span, r)
	dopts := opts
	dopts.K = r
	dopts.Direct = true
	dopts.Initial = nil
	dopts.Epsilon = eps
	st := newDirectState(sub, dopts, seed, spans, idealPerBucket)
	st.run()

	// Group data by child bucket and enqueue.
	childData := make([][]int32, r)
	for i, d := range t.data {
		childData[st.bucket[i]] = append(childData[st.bucket[i]], d)
	}
	var children []rtask
	lo := t.lo
	for c := 0; c < r; c++ {
		hi := lo + int32(spans[c])
		children = append(children, childTasks(assignment, rtask{data: childData[c], lo: lo, hi: hi})...)
		lo = hi
	}
	hist := st.history
	for i := range hist {
		hist[i].Level = level
		hist[i].Task = int(t.lo)
	}
	work := st.work
	for i := range work {
		work[i].Level = level
		work[i].Task = int(t.lo)
	}
	return children, hist, work, len(hist)
}

// coversGraph reports whether task t's induced subproblem is g itself: the
// task holds every data vertex (task data is always ascending, so it is then
// exactly 0..n−1) and no hyperedge has fewer than two members, so
// InducedByData would drop nothing and relabel nothing. The root task of a
// pruned graph takes this path and skips a full copy of the graph; a graph
// with degree-0 (tombstoned) or degree-1 hyperedges still induces.
func coversGraph(g *hypergraph.Bipartite, t rtask) bool {
	if len(t.data) != g.NumData() {
		return false
	}
	for q := 0; q < g.NumQueries(); q++ {
		if g.QueryDegree(int32(q)) < 2 {
			return false
		}
	}
	return true
}

// childTasks assigns leaf ranges immediately and returns the rest.
func childTasks(assignment partition.Assignment, ts ...rtask) []rtask {
	var out []rtask
	for _, t := range ts {
		if int(t.hi-t.lo) <= 1 {
			for _, d := range t.data {
				assignment[d] = t.lo
			}
			continue
		}
		if len(t.data) == 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// warmStartSides derives per-vertex home sides (0 = left child, 1 = right)
// from Options.Initial for the task's data vertices, or nil without a warm
// start. Vertices whose initial bucket lies outside the task's range get -1.
func warmStartSides(opts Options, t rtask, kLeft int32) []int8 {
	if opts.Initial == nil {
		return nil
	}
	home := make([]int8, len(t.data))
	mid := t.lo + kLeft
	for i, d := range t.data {
		b := opts.Initial[d]
		switch {
		case b < t.lo || b >= t.hi:
			home[i] = -1
		case b < mid:
			home[i] = 0
		default:
			home[i] = 1
		}
	}
	return home
}

// evenSpans distributes span buckets over r children as evenly as possible.
func evenSpans(span, r int) []int {
	spans := make([]int, r)
	base := span / r
	rem := span % r
	for i := range spans {
		spans[i] = base
		if i < rem {
			spans[i]++
		}
	}
	return spans
}

// levelsFor returns the recursion depth: ceil(log_r k).
func levelsFor(k, r int) int {
	if r < 2 {
		return 1
	}
	levels := 0
	for span := 1; span < k; span *= r {
		levels++
	}
	return levels
}
