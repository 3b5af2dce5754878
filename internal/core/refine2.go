package core

import (
	"slices"
	"sync/atomic"

	"shp/internal/hypergraph"
	"shp/internal/par"
	"shp/internal/rng"
)

// bisection is one 2-way refinement subproblem over a compact induced graph.
// Recursive bisection (SHP-2) builds one of these per recursion node; the
// two "sides" are the node's two children.
//
// # The incremental engine
//
// Like the SHP-k refiner (direct.go), the bisection runs on the shared
// incremental-gain kernel (ndstate.go). Its neighbor data is the two-bucket
// special case of the kernel's per-query segments — a (c0, c1) pair — so
// each query's counts are packed into one uint64 word (side 0 in the low 32
// bits, side 1 in the high 32) rather than a sparse CSR: every (vertex,
// query) read of a gain rebuild, fresh gain or objective is one load. A
// member moving into side s is one add of sideTransfer[s], and since every
// move is a ±1 transfer, a batch's net per-query delta is one int32 (side
// 1's; side 0's is its negation). Everything downstream of a count change
// is the kernel's machinery:
//
//   - Every data vertex carries its Equation 1 state in patchable form:
//     accOwn = Σ_q wq·T_cur[n_cur(q)−1] and accOth = Σ_q wq·T_oth[n_oth(q)],
//     from which the gain is mult·(accOwn − accOth) plus the warm-start
//     penalty.
//   - After a move batch, each dirty query's canonical (side, cOld, cNew)
//     changes are derived from the batch's net count deltas (every move is
//     a ±1 transfer, so cOld is exactly cNew minus the net delta — no
//     snapshots needed), and folded into the clean members' accumulators
//     through GainTables.DeltaOwn/DeltaAway. A hub query with one mover
//     costs two branch-free adds per member instead of each member
//     re-walking its whole membership, so frontier cost is O(churn).
//   - Movers are rebuilt (their own side changed, which swaps the meaning
//     of the two accumulators), and batches that move more than
//     1/sweepFallbackDiv of the vertices fall back to a full rebuild sweep:
//     the counts are then recounted query-centrically in parallel
//     (recountNeighborData, the same pass as initialization and the
//     Options.NDRebuildEvery safety net) instead of being scattered per
//     mover.
//
// All patch arithmetic lives on the shared dyadic grid, so the patched and
// rebuilt states are bit-identical, and the engine is pinned byte-identical
// to Options.DisableIncremental (full per-iteration gain recomputation) —
// the same guarantee the direct engine carries.
type bisection struct {
	g    *hypergraph.Bipartite
	opts Options
	seed uint64

	level, task int
	workers     int
	maxIters    int

	// Lookahead split counts: side 0 will later split into tSplit[0] final
	// buckets, side 1 into tSplit[1] (Section 3.4's final-p-fanout
	// approximation). Both 1 when lookahead is disabled or at leaf level.
	tSplit [2]int
	tables [2]GainTables

	// eps is the imbalance allowance granted to this recursion level.
	eps float64

	side []int8   // current side of each data vertex
	home []int8   // warm-start side, -1 when absent (for MoveCostPenalty)
	n    []uint64 // per-query packed side counts (see sideTransfer)
	w    [2]int64 // side weights

	// Incremental-engine state (nil when Options.DisableIncremental):
	// accOwn/accOth are the per-vertex patchable Equation 1 accumulators;
	// active holds each vertex's pending work (activeRebuild for movers and
	// full sweeps, activeSelect for patched accumulators); d holds each
	// dirty query's net side-1 count delta for the current batch, dirtyQ
	// the touched queries in first-touch order (deduped by dirtyFlag);
	// lastMoved collects the batch's movers; pgs is the reusable buffer the
	// per-dirty-query patch groups land in.
	accOwn, accOth []float64
	active         []uint8
	d              []int32
	dirtyFlag      []uint8
	dirtyQ         []int32
	lastMoved      []int32
	pgs            []patchGroup
	pgsReady       bool
	allActive      bool

	// Owner-sharded parallel patch routing (see applyBatchPatched): route
	// is the reused [source][owner] transfer buffer, ownerDirty/ownerPGs
	// the per-owner dirty-query lists and derived patch groups.
	route      [][][]sideUpdate
	ownerDirty [][]int32
	ownerPGs   [][]patchGroup

	// frontier is the sorted list of vertices finishPatch marked active —
	// exactly the vertices whose (side, gain) can have changed since the
	// last iteration. While frontierValid, the gain pass and the bin sync
	// walk it instead of scanning all of |D|; sweep fallbacks invalidate it
	// (the marks then cover everyone). frontWork holds the per-worker
	// collection buffers, frontScratch the radix-sort ping-pong buffer.
	// Maintained only on the incremental path.
	frontier      []int32
	frontierValid bool
	frontWork     [][]int32
	frontScratch  []int32

	// bins is the maintained gain-bin structure (see gainbins.go), kept on
	// BOTH paths — the histogram sums must come from the same float
	// operation sequence for the paths to stay bit-identical.
	bins *gainBins

	// Reusable per-iteration scratch for the probabilistic move protocol:
	// decided flags plus the (ascending) list of decided vertices, and the
	// trim pass's arrival buffer. All cleared through the lists they were
	// filled from, so idle iterations never pay an O(|D|) clear. coinWork
	// and coinScan are the coin phase's per-bin-shard collection buffers
	// and scan counters (sized by the shard layout, not the worker count).
	decided     []bool
	decidedList []int32
	arrivalsBuf []int32
	coinWork    [][]int32
	coinScan    []int64

	targetW [2]float64
	capW    [2]float64

	gains []float64

	// qw holds per-query weights as float64 (nil when unit-weighted):
	// weighted queries scale their Equation 1 terms and objective
	// contributions proportionally.
	qw []float64

	// gainWork counts Equation 1 work units deterministically: one per
	// table term summed in a gain rebuild, one per delta record folded into
	// an accumulator. workHist snapshots the running total after every
	// iteration. scanWork counts the per-vertex visits of the phases around
	// the gain math — the gain/sync/coin/trim loops — and scanHist mirrors
	// workHist for it; together they pin the engine's frontier-
	// proportionality. lastFrontier records the vertex count the most
	// recent gain pass visited. All are pure observability counters (never
	// read by the algorithm).
	gainWork     int64
	workHist     []int64
	scanWork     int64
	scanHist     []int64
	lastFrontier int64

	history []IterStats
	work    []WorkStats
}

// newBisection prepares a subproblem. propLeft is the share of total weight
// destined for side 0 (e.g. 3/5 when splitting 5 buckets into 3+2).
// idealPerBucket is the global ideal weight of one final bucket
// (total graph weight / K); balance caps are expressed against it so that
// per-level ε allowances telescope to the overall (1+ε)·n/k bound instead of
// compounding. Pass <= 0 to derive it from the subproblem itself.
func newBisection(g *hypergraph.Bipartite, opts Options, seed uint64, level, task int,
	tLeft, tRight int, propLeft, eps, idealPerBucket float64, home []int8) *bisection {

	b := &bisection{
		g: g, opts: opts, seed: seed,
		level: level, task: task,
		workers:  par.Workers(opts.Parallelism),
		maxIters: opts.MaxIters,
		tSplit:   [2]int{tLeft, tRight},
		eps:      eps,
		home:     home,
	}
	maxN := g.MaxQueryDegree()
	b.tables[0] = tablesFor(opts, tLeft, maxN)
	b.tables[1] = tablesFor(opts, tRight, maxN)

	nd := g.NumData()
	nq := g.NumQueries()
	b.side = make([]int8, nd)
	b.gains = make([]float64, nd)
	// The histogram protocol shards the bins by fixed vertex ranges so the
	// sync and coin phases parallelize; the exact pairing needs one global
	// order and keeps a single shard. Keyed off opts alone, never workers.
	b.bins = newGainBins(nd, opts.Pairing != PairExact)
	b.n = make([]uint64, nq)
	if !opts.DisableIncremental {
		b.accOwn = make([]float64, nd)
		b.accOth = make([]float64, nd)
		b.active = make([]uint8, nd)
		b.d = make([]int32, nq)
		b.dirtyFlag = make([]uint8, nq)
		b.allActive = true // fresh state: everything needs evaluation
	}
	if g.QueryWeighted() {
		b.qw = make([]float64, nq)
		for q := range b.qw {
			b.qw[q] = float64(g.QueryWeight(int32(q)))
		}
	}

	total := g.TotalDataWeight()
	b.targetW[0] = float64(total) * propLeft
	b.targetW[1] = float64(total) - b.targetW[0]
	if idealPerBucket <= 0 {
		idealPerBucket = float64(total) / float64(tLeft+tRight)
	}
	b.capW[0] = idealPerBucket * float64(tLeft) * (1 + eps)
	b.capW[1] = idealPerBucket * float64(tRight) * (1 + eps)

	b.initialSplit(propLeft)
	b.recountNeighborData()
	return b
}

// initialSplit assigns sides. With a warm start (home), vertices keep their
// home side and only balance violations are repaired; otherwise a random
// permutation is cut at the target weight, giving the near-perfect initial
// balance the paper's random initialization relies on.
func (b *bisection) initialSplit(propLeft float64) {
	nd := b.g.NumData()
	if b.home != nil {
		copy(b.side, b.home)
		for i, h := range b.home {
			if h < 0 {
				// Vertex without a warm-start side: deterministic coin.
				if rng.CoinAt(b.seed^0x5157, uint64(i)) < propLeft {
					b.side[i] = 0
				} else {
					b.side[i] = 1
				}
			}
		}
		b.recountWeights()
		b.repairBalance()
		return
	}
	order := rng.NewStream(b.seed, 0xF00D).Perm(nd)
	var acc float64
	for _, v := range order {
		wv := float64(b.g.DataWeight(int32(v)))
		if acc+wv/2 < b.targetW[0] {
			b.side[v] = 0
			acc += wv
		} else {
			b.side[v] = 1
		}
	}
	b.recountWeights()
}

func (b *bisection) recountWeights() {
	b.w[0], b.w[1] = 0, 0
	for v := 0; v < b.g.NumData(); v++ {
		b.w[b.side[v]] += int64(b.g.DataWeight(int32(v)))
	}
}

// repairBalance flips vertices from the over-cap side (in deterministic
// random order) until both caps hold. Needed only for warm starts.
func (b *bisection) repairBalance() {
	for s := 0; s < 2; s++ {
		if float64(b.w[s]) <= b.capW[s] {
			continue
		}
		order := rng.NewStream(b.seed, 0xBA1A).Perm(b.g.NumData())
		for _, v := range order {
			if float64(b.w[s]) <= b.targetW[s] {
				break
			}
			if b.side[v] != int8(s) {
				continue
			}
			b.side[v] = int8(1 - s)
			wv := int64(b.g.DataWeight(int32(v)))
			b.w[s] -= wv
			b.w[1-s] += wv
		}
	}
}

// sideTransfer[s] is the packed-count increment that moves one member of a
// query into side s: +1 on side s's word, −1 on the other's. Into side 1 it
// adds 2³²−1; into side 0 it subtracts 2³²−1 (mod 2⁶⁴). The borrow or carry
// between the words is exactly the other side's ∓1, and the side a member
// leaves always counts it, so neither word ever wraps.
var sideTransfer = [2]uint64{0xFFFF_FFFF_0000_0001, 0x0000_0000_FFFF_FFFF}

// sideCount unpacks side s's count from a packed per-query word.
func sideCount(x uint64, s int8) int32 {
	return int32(uint32(x >> (32 * uint(s))))
}

// recountNeighborData rebuilds the per-query side counts from scratch (the
// two-bucket form of the kernel's ndBuild): side 1's count is the sum of
// the members' sides, side 0's the rest, with no branch per member.
func (b *bisection) recountNeighborData() {
	nq := b.g.NumQueries()
	par.For(nq, b.workers, func(start, end int) {
		for q := start; q < end; q++ {
			members := b.g.QueryNeighbors(int32(q))
			var c1 uint64
			for _, d := range members {
				c1 += uint64(b.side[d])
			}
			b.n[q] = c1<<32 | (uint64(len(members)) - c1)
		}
	})
}

// transferCounts folds one already-flipped mover's ±1 transfers into the
// packed side counts.
func (b *bisection) transferCounts(v int32) {
	t := sideTransfer[b.side[v]]
	for _, q := range b.g.DataNeighbors(v) {
		b.n[q] += t
	}
}

// rebuildGain resums vertex v's Equation 1 accumulators from the current
// side counts and derives the gain. All terms are grid values, so the
// resummation lands on the same bits as any sequence of patches arriving at
// the same counts.
func (b *bisection) rebuildGain(v int32) int64 {
	cur := b.side[v]
	tCur := b.tables[cur].T
	tOth := b.tables[1-cur].T
	shCur := 32 * uint(cur)
	shOth := 32 - shCur
	own, sumOth := 0.0, 0.0
	neighbors := b.g.DataNeighbors(v)
	if b.qw == nil {
		for _, q := range neighbors {
			x := b.n[q]
			own += tCur[uint32(x>>shCur)-1]
			sumOth += tOth[uint32(x>>shOth)]
		}
	} else {
		for _, q := range neighbors {
			x := b.n[q]
			wq := b.qw[q]
			own += wq * tCur[uint32(x>>shCur)-1]
			sumOth += wq * tOth[uint32(x>>shOth)]
		}
	}
	b.accOwn[v] = own
	b.accOth[v] = sumOth
	b.deriveGain(v)
	return int64(2 * len(neighbors))
}

// deriveGain turns vertex v's cached accumulators into its move gain:
// Equation 1 plus the incremental-update penalty. Grid-exact sums make
// accOwn − accOth equal, bit for bit, to the interleaved single-pass
// summation the full path performs.
func (b *bisection) deriveGain(v int32) {
	g := b.tables[0].mult * (b.accOwn[v] - b.accOth[v])
	if b.opts.MoveCostPenalty > 0 && b.home != nil && b.home[v] >= 0 {
		if b.side[v] == b.home[v] {
			g -= b.opts.MoveCostPenalty // would leave home
		} else {
			g += b.opts.MoveCostPenalty // would return home
		}
	}
	b.gains[v] = g
}

// computeGains brings every vertex's Equation 1 gain up to date. On the
// full path (DisableIncremental) every vertex re-walks its membership each
// iteration. On the incremental path only flagged vertices do anything:
// movers (and full sweeps) resum their accumulators, patched vertices
// re-derive the gain from the already-exact accumulators, and untouched
// vertices keep their cached gain — which is bit-identical to what a
// recomputation would produce, because none of its inputs changed.
func (b *bisection) computeGains() {
	nd := b.g.NumData()
	if b.active == nil {
		// Full path: one interleaved Equation 1 pass per vertex.
		par.For(nd, b.workers, func(start, end int) {
			for v := start; v < end; v++ {
				b.gains[v] = b.freshGain(int32(v))
			}
		})
		b.gainWork += 2 * int64(b.g.NumEdges())
		b.lastFrontier = int64(nd)
		return
	}
	var work int64
	if !b.allActive && b.frontierValid {
		// Frontier mode: the flagged vertices are exactly the frontier, so
		// visit only it — no O(|D|) scan to find the marks.
		f := b.frontier
		par.ForWorker(len(f), b.workers, func(_, start, end int) {
			var local int64
			for i := start; i < end; i++ {
				v := f[i]
				if b.active[v] == activeRebuild {
					local += b.rebuildGain(v)
				} else if b.active[v] == activeSelect {
					b.deriveGain(v)
				}
			}
			atomic.AddInt64(&work, local)
		})
		b.gainWork += work
		b.scanWork += int64(len(f))
		b.lastFrontier = int64(len(f))
		return
	}
	all := b.allActive
	par.ForWorker(nd, b.workers, func(_, start, end int) {
		var local int64
		for v := start; v < end; v++ {
			if all || b.active[v] == activeRebuild {
				local += b.rebuildGain(int32(v))
			} else if b.active[v] == activeSelect {
				b.deriveGain(int32(v))
			}
		}
		atomic.AddInt64(&work, local)
	})
	b.gainWork += work
	b.scanWork += int64(nd)
	b.lastFrontier = int64(nd)
}

// syncBins reconciles the maintained gain bins with the current (side,
// gain) state, after computeGains and before any consumer. Both paths
// apply the same canonical changed-only update rule in ascending vertex
// order within each bin shard (see gainbins.go); only how the candidate
// set is discovered differs — comparison scan over everyone, or the
// frontier. Shards are disjoint vertex ranges, so the parallel sweep is
// lock-free, and the per-shard update sequences are identical for every
// worker count (workers only decide who processes which shards).
func (b *bisection) syncBins() {
	nd := b.g.NumData()
	if b.active == nil || b.allActive || !b.frontierValid {
		par.For(b.bins.shards, b.workers, func(s, e int) {
			for sh := s; sh < e; sh++ {
				lo, hi := b.bins.shardRange(sh)
				for v := lo; v < hi; v++ {
					b.bins.update(int32(v), b.side[v], b.gains[v])
				}
			}
		})
		b.scanWork += int64(nd)
		return
	}
	// The frontier is sorted ascending, so each shard's candidates are one
	// contiguous slice of it, found by binary search.
	f := b.frontier
	par.For(b.bins.shards, b.workers, func(s, e int) {
		for sh := s; sh < e; sh++ {
			lo, hi := b.bins.shardRange(sh)
			i := lowerBound(f, int32(lo))
			for _, v := range f[i:] {
				if v >= int32(hi) {
					break
				}
				b.bins.update(v, b.side[v], b.gains[v])
			}
		}
	})
	b.scanWork += int64(len(f))
}

// objective returns the subproblem's current objective value (sum over
// queries of both sides' contributions, using the lookahead tables).
func (b *bisection) objective() float64 {
	nq := b.g.NumQueries()
	return par.SumFloat64(nq, b.workers, func(start, end int) float64 {
		sum := 0.0
		c0 := b.tables[0].C
		c1 := b.tables[1].C
		for q := start; q < end; q++ {
			x := b.n[q]
			c := c0[uint32(x)] + c1[uint32(x>>32)]
			if b.qw != nil {
				c *= b.qw[q]
			}
			sum += c
		}
		return sum
	})
}

// extras returns the one-sided move allowances (in vertices) for directions
// 0->1 and 1->0, derived from the receiving side's remaining ε headroom.
func (b *bisection) extras() (into1, into0 int64) {
	avgW := 1.0
	if b.g.Weighted() {
		avgW = float64(b.g.TotalDataWeight()) / float64(b.g.NumData())
	}
	head1 := (b.capW[1] - float64(b.w[1])) / avgW
	head0 := (b.capW[0] - float64(b.w[0])) / avgW
	// 0.9 safety margin: probabilistic rounding can overshoot the expected
	// number of extra moves.
	if head1 > 0 {
		into1 = int64(head1 * 0.9)
	}
	if head0 > 0 {
		into0 = int64(head0 * 0.9)
	}
	return into1, into0
}

// run iterates refinement until convergence and returns the final sides.
func (b *bisection) run() []int8 {
	nd := b.g.NumData()
	if nd == 0 {
		return b.side
	}
	incremental := b.active != nil
	rebuildEvery := b.opts.NDRebuildEvery
	for iter := 0; iter < b.maxIters; iter++ {
		b.allActive = iter == 0
		if incremental && rebuildEvery > 0 && iter > 0 && iter%rebuildEvery == 0 {
			// Safety net: recompute the maintained counts from scratch and
			// re-evaluate everything. Never changes results.
			b.recountNeighborData()
			b.allActive = true
		}
		gw0, sw0 := b.gainWork, b.scanWork
		b.computeGains()
		var moved int64
		if b.opts.Pairing == PairExact {
			moved = b.applyExact(iter)
		} else {
			moved = b.applyProbabilistic(iter)
		}
		b.history = append(b.history, IterStats{
			Level: b.level, Task: b.task, Iter: iter,
			Objective:     b.objective(),
			Moved:         moved,
			MovedFraction: float64(moved) / float64(nd),
		})
		b.workHist = append(b.workHist, b.gainWork)
		b.scanHist = append(b.scanHist, b.scanWork)
		b.work = append(b.work, WorkStats{
			Level: b.level, Task: b.task, Iter: iter,
			Frontier: b.lastFrontier,
			GainWork: b.gainWork - gw0,
			ScanWork: b.scanWork - sw0,
		})
		if moved == 0 || float64(moved)/float64(nd) < b.opts.MinMoveFraction {
			break
		}
	}
	return b.side
}

// applyProbabilistic runs the histogram (or S-matrix) protocol: read the
// per-direction gain histograms off the maintained bins, let the "master"
// compute per-bin move probabilities, then move each vertex with its bin's
// probability using a per-vertex deterministic coin. No phase scans all of
// |D|: the histogram costs O(bins), the coin phase visits only the bins
// the matching granted positive probability, and the apply/trim phases
// walk the decided list.
func (b *bisection) applyProbabilistic(iter int) int64 {
	nd := b.g.NumData()
	b.syncBins()
	hist0 := b.bins.hist(0)
	hist1 := b.bins.hist(1)
	into1, into0 := b.extras()
	var probs [2]ProbTable
	if b.opts.Pairing == PairSimple {
		probs[0], probs[1] = MatchSimple(&hist0, &hist1, into1, into0)
	} else {
		probs[0], probs[1] = MatchHistograms(&hist0, &hist1, into1, into0)
	}

	// Phase 1: per-vertex coin decisions, visiting only populated bins with
	// positive move probability, in parallel over the fixed bin shards. The
	// decision per vertex is its own deterministic coin against its bin's
	// probability (a vertex's bin probability IS its ProbFor), so the
	// decided set is independent of visit order and of the worker count;
	// the per-shard buffers are concatenated in ascending shard order and
	// radix-sorted back into the canonical ascending order the apply phase
	// requires. decided[v] writes stay within v's shard, so the sweep is
	// lock-free.
	if b.decided == nil {
		b.decided = make([]bool, nd)
	}
	decided := b.decided
	if len(b.coinWork) != b.bins.shards {
		b.coinWork = make([][]int32, b.bins.shards)
		b.coinScan = make([]int64, b.bins.shards)
	}
	iterKey := rng.Mix(uint64(iter)+1, 0xC01)
	par.For(b.bins.shards, b.workers, func(s, e int) {
		for sh := s; sh < e; sh++ {
			buf := b.coinWork[sh][:0]
			var scan int64
			shBase := sh * binSlots
			for side := 0; side < 2; side++ {
				base := shBase + side*2*histBins
				pt := &probs[side]
				for sign := 0; sign < 2; sign++ {
					for bin := 0; bin < histBins; bin++ {
						var p float64
						if sign == 0 {
							p = pt.pos[bin]
						} else {
							p = pt.neg[bin]
						}
						if p <= 0 {
							continue
						}
						vs := b.bins.list[base+sign*histBins+bin]
						scan += int64(len(vs))
						for _, v := range vs {
							if p >= 1 || rng.CoinAt(b.seed, rng.Mix(iterKey, uint64(v))) < p {
								decided[v] = true
								buf = append(buf, v)
							}
						}
					}
				}
			}
			b.coinWork[sh] = buf
			b.coinScan[sh] = scan
		}
	})
	list := b.decidedList[:0]
	for sh := 0; sh < b.bins.shards; sh++ {
		list = append(list, b.coinWork[sh]...)
		b.scanWork += b.coinScan[sh]
	}
	if cap(b.frontScratch) < len(list) {
		b.frontScratch = make([]int32, len(list))
	}
	radixSortInt32(list, b.frontScratch[:cap(b.frontScratch)], int32(nd))
	b.decidedList = list
	// Phase 2 (serial, deterministic): apply all decided moves, then undo
	// the lowest-gain arrivals of any side that breached its cap. Applying
	// first lets opposing flows cancel (a swap must not deadlock on two
	// full sides); the undo pass upgrades the paper's balance-in-
	// expectation to a hard cap. Because total weight never exceeds
	// capL + capR, trimming one side cannot push the other over its cap.
	for _, v := range list {
		cur := b.side[v]
		oth := 1 - cur
		wv := int64(b.g.DataWeight(v))
		b.side[v] = oth
		b.w[cur] -= wv
		b.w[oth] += wv
	}
	b.scanWork += int64(len(list))
	for s := int8(0); s < 2; s++ {
		if float64(b.w[s]) <= b.capW[s] {
			continue
		}
		arrivals := b.arrivalsBuf[:0]
		for _, v := range list {
			// decided[v] guards against double-undo: a vertex undone by the
			// other side's trim pass is already back home and must not be
			// flipped again (that would desynchronize the neighbor counts).
			if decided[v] && b.side[v] == s {
				arrivals = append(arrivals, v)
			}
		}
		b.scanWork += int64(len(list))
		slices.SortFunc(arrivals, func(x, y int32) int {
			gx, gy := b.gains[x], b.gains[y]
			if gx < gy {
				return -1
			}
			if gx > gy {
				return 1
			}
			return int(x - y)
		})
		for _, v := range arrivals {
			if float64(b.w[s]) <= b.capW[s] {
				break
			}
			wv := int64(b.g.DataWeight(v))
			b.side[v] = 1 - s
			b.w[s] -= wv
			b.w[1-s] += wv
			decided[v] = false // undone
		}
		b.arrivalsBuf = arrivals
	}
	accepted := list[:0]
	for _, v := range list {
		if decided[v] {
			accepted = append(accepted, v)
		}
	}
	// Clear the decision flags through the list (undone vertices are
	// already false), so the next iteration starts clean without an O(|D|)
	// clear.
	for _, v := range accepted {
		decided[v] = false
	}
	// Phase 3: neighbor-count updates for surviving moves. Batches past the
	// sweep-fallback size recount every query's counts (parallel, query-
	// centric, O(|E|) like the rebuild sweep scheduled with it). Smaller
	// batches on the incremental path go through the patch collector
	// (counts, net deltas, dirty queries, member patches — O(churn·deg),
	// owner-sharded in parallel past a size gate); on the full path they
	// transfer their counts directly.
	switch {
	case len(accepted)*sweepFallbackDiv >= nd:
		b.recountNeighborData()
		if b.active != nil {
			for i := range b.active {
				b.active[i] = activeRebuild
			}
			b.frontierValid = false
		}
	case b.active != nil:
		b.applyBatchPatched(accepted)
		b.finishPatch(accepted)
	default:
		for _, v := range accepted {
			b.transferCounts(v)
		}
	}
	return int64(len(accepted))
}

// applyMovePatched folds one already-flipped mover's count transfers into
// the maintained side counts while accumulating the batch's net per-query
// deltas and the dirty-query list the diff will read. This is the serial
// collector; churn-sized batches route through it directly, and first-touch
// order fixes the dirty list deterministically.
func (b *bisection) applyMovePatched(v int32) {
	to := b.side[v] // already flipped
	t, dd := sideTransfer[to], 2*int32(to)-1
	for _, q := range b.g.DataNeighbors(v) {
		b.n[q] += t
		b.d[q] += dd
		if b.dirtyFlag[q] == 0 {
			b.dirtyFlag[q] = 1
			b.dirtyQ = append(b.dirtyQ, q)
		}
	}
}

// sideUpdate routes one mover's ±1 count transfer to its query's owner in
// the parallel patch collector.
type sideUpdate struct {
	q  int32
	to int8
}

// parallelPatchMin gates the owner-sharded parallel patch collector:
// batches below it take the serial collector, whose per-mover loop beats
// the routing overhead at churn scale. The branches produce identical
// results — count transfers are integer, the derived patch groups are the
// same set, and every downstream order is canonicalized — so the gate (and
// the worker count that feeds it) is a pure performance knob.
const parallelPatchMin = 256

// applyBatchPatched folds a whole accepted batch into the maintained side
// counts and derives the per-dirty-query patch groups. Large batches shard
// the work by query owner, mirroring the kernel's ndApplyMoveBatch: source
// workers route each mover's transfers to the owning query range, then each
// owner applies its shard's transfers and derives its dirty queries' groups
// without locking (a query belongs to exactly one owner). Per-owner group
// lists are concatenated in ascending owner order; group order is
// immaterial to results (exact patch arithmetic, radix-sorted frontier), so
// worker count never shows through.
func (b *bisection) applyBatchPatched(accepted []int32) {
	if b.workers == 1 || len(accepted) < parallelPatchMin {
		for _, v := range accepted {
			b.applyMovePatched(v)
		}
		return
	}
	nq := b.g.NumQueries()
	w := b.workers
	chunk := (nq + w - 1) / w
	if chunk == 0 {
		chunk = 1
	}
	if b.route == nil {
		b.route = make([][][]sideUpdate, w)
		b.ownerDirty = make([][]int32, w)
		b.ownerPGs = make([][]patchGroup, w)
	}
	route := b.route
	for sw := range route {
		for dw := range route[sw] {
			route[sw][dw] = route[sw][dw][:0]
		}
	}
	par.ForWorker(len(accepted), w, func(sw, start, end int) {
		o := route[sw]
		if o == nil {
			o = make([][]sideUpdate, w)
			route[sw] = o
		}
		for i := start; i < end; i++ {
			v := accepted[i]
			to := b.side[v] // already flipped
			for _, q := range b.g.DataNeighbors(v) {
				dw := int(q) / chunk
				o[dw] = append(o[dw], sideUpdate{q: q, to: to})
			}
		}
	})
	par.Each(w, func(dw int) {
		dirty := b.ownerDirty[dw][:0]
		for sw := 0; sw < w; sw++ {
			if route[sw] == nil {
				continue
			}
			for _, u := range route[sw][dw] {
				b.n[u.q] += sideTransfer[u.to]
				b.d[u.q] += 2*int32(u.to) - 1
				if b.dirtyFlag[u.q] == 0 {
					b.dirtyFlag[u.q] = 1
					dirty = append(dirty, u.q)
				}
			}
		}
		pgs := b.ownerPGs[dw][:0]
		for _, q := range dirty {
			if pg, ok := b.derivePatchGroup(q); ok {
				pgs = append(pgs, pg)
			}
		}
		b.ownerDirty[dw] = dirty
		b.ownerPGs[dw] = pgs
	})
	b.pgs = b.pgs[:0]
	for dw := 0; dw < w; dw++ {
		b.pgs = append(b.pgs, b.ownerPGs[dw]...)
	}
	b.pgsReady = true
}

// patchGroup is one dirty query's precomputed accumulator adjustments: a
// member on side s gains own[s] on accOwn (its own-side term moved through
// DeltaOwn) and away[1−s] on accOth (the opposite side's term through
// DeltaAway); a side whose count did not change contributes exactly 0.
// Precomputing the four products once per query replaces the per-member
// record walk with two branch-free adds — the products are the same
// wq·Delta values per-member patching would compute, so the folded sums
// are bit-identical.
type patchGroup struct {
	q         int32
	own, away [2]float64
	nrec      int64 // changed sides, for the gainWork accounting
}

// derivePatchGroup turns one dirty query's net count deltas into its patch
// group (cOld = cNew − net, exactly what a pre-batch snapshot would have
// diffed out), resetting the query's delta and dirty-flag state. ok is
// false when the deltas net to zero (opposing flips cancelled). Callers
// owning disjoint query shards may run concurrently.
func (b *bisection) derivePatchGroup(q int32) (patchGroup, bool) {
	pg := patchGroup{q: q}
	b.dirtyFlag[q] = 0
	dd := b.d[q] // side 1's net delta; side 0's is −dd
	if dd == 0 {
		return pg, false
	}
	b.d[q] = 0
	wq := 1.0
	if b.qw != nil {
		wq = b.qw[q]
	}
	x := b.n[q]
	for s, net := range [2]int32{-dd, dd} {
		cNew := sideCount(x, int8(s))
		cOld := cNew - net
		pg.own[s] = wq * b.tables[s].DeltaOwn(cOld, cNew)
		pg.away[s] = wq * b.tables[s].DeltaAway(cOld, cNew)
	}
	pg.nrec = 2
	return pg, true
}

// finishPatch closes a patched move batch: each dirty query's patch group
// is folded into the clean members' accumulators in parallel over disjoint
// vertex ranges — exact arithmetic makes the patch order (and the range
// partition) irrelevant to the result. Movers are scheduled for a rebuild:
// their own side changed, so the cached accumulators (and any patches
// applied to them above) refer to the wrong frame. Groups are derived here
// from the serial collector's dirty list unless the parallel collector
// already derived them in its owner pass (pgsReady).
func (b *bisection) finishPatch(movers []int32) {
	if !b.pgsReady {
		b.pgs = b.pgs[:0]
		for _, q := range b.dirtyQ {
			if pg, ok := b.derivePatchGroup(q); ok {
				b.pgs = append(b.pgs, pg)
			}
		}
		b.dirtyQ = b.dirtyQ[:0]
	}
	b.pgsReady = false

	// Clear the previous batch's marks through the frontier they form (the
	// marked set IS the frontier while frontierValid); a full clear is only
	// needed when the marks are not frontier-backed (first batch, or after a
	// sweep fallback or external invalidation).
	if b.frontierValid {
		for _, v := range b.frontier {
			b.active[v] = 0
		}
		b.scanWork += int64(len(b.frontier))
	} else {
		for i := range b.active {
			b.active[i] = 0
		}
		b.scanWork += int64(len(b.active))
	}
	nd := b.g.NumData()
	if b.frontWork == nil {
		b.frontWork = make([][]int32, b.workers)
	}
	for w := range b.frontWork {
		// Reset every buffer, not just the ones this batch engages:
		// par.ForWorker may use fewer workers than last time, and a stale
		// buffer would leak old vertices into the frontier.
		b.frontWork[w] = b.frontWork[w][:0]
	}
	var work int64
	par.ForWorker(nd, b.workers, func(w, vs, ve int) {
		lo32, hi32 := int32(vs), int32(ve)
		buf := b.frontWork[w]
		var local int64
		for gi := range b.pgs {
			pg := &b.pgs[gi]
			members := b.g.QueryNeighbors(pg.q)
			i := lowerBound(members, lo32)
			for _, v := range members[i:] {
				if v >= hi32 {
					break
				}
				c := b.side[v]
				b.accOwn[v] += pg.own[c] //shp:rawfloat(pg.own/pg.away hold DeltaOwn/DeltaAway table values hoisted once per group; same dyadic grid, same bits)
				b.accOth[v] += pg.away[1-c]
				if b.active[v] == 0 {
					buf = append(buf, v)
				}
				b.active[v] = activeSelect
				local += pg.nrec
			}
		}
		b.frontWork[w] = buf
		atomic.AddInt64(&work, local)
	})
	b.gainWork += work

	f := b.frontier[:0]
	for _, buf := range b.frontWork {
		f = append(f, buf...)
	}
	for _, v := range movers {
		// First-touch: movers of positive degree were already collected as
		// members of their own dirty queries; zero-degree movers were not.
		if b.active[v] == 0 {
			f = append(f, v)
		}
		b.active[v] = activeRebuild
	}
	// Ascending order is the canonical bin-update (and gain-pass) order the
	// bit-identity discipline requires; the collected buffers interleave
	// members of distinct dirty queries, so order them with O(|F|) counting
	// passes (see radixSortInt32) rather than a comparison sort.
	if cap(b.frontScratch) < len(f) {
		b.frontScratch = make([]int32, len(f))
	}
	radixSortInt32(f, b.frontScratch[:cap(b.frontScratch)], int32(nd))
	b.frontier = f
	b.frontierValid = true
}

// discardPatch drops a batch's collected deltas without diffing (the sweep
// fallback of the exact pairing, whose batch size is only known at the
// end) and schedules the full rebuild sweep instead.
func (b *bisection) discardPatch() {
	b.pgsReady = false
	for _, q := range b.dirtyQ {
		b.d[q] = 0
		b.dirtyFlag[q] = 0
	}
	b.dirtyQ = b.dirtyQ[:0]
	for i := range b.active {
		b.active[i] = activeRebuild
	}
	b.frontierValid = false
}

// freshGain recomputes vertex v's Equation 1 gain from the current counts
// (as opposed to the batch gains computed at the start of the iteration).
// This is both the full path's per-vertex evaluation and the exact
// pairing's mid-batch re-check.
func (b *bisection) freshGain(v int32) float64 {
	cur := b.side[v]
	tCur := b.tables[cur].T
	tOth := b.tables[1-cur].T
	shCur := 32 * uint(cur)
	shOth := 32 - shCur
	sum := 0.0
	if b.qw == nil {
		for _, q := range b.g.DataNeighbors(v) {
			x := b.n[q]
			sum += tCur[uint32(x>>shCur)-1] - tOth[uint32(x>>shOth)]
		}
	} else {
		for _, q := range b.g.DataNeighbors(v) {
			x := b.n[q]
			sum += b.qw[q] * (tCur[uint32(x>>shCur)-1] - tOth[uint32(x>>shOth)])
		}
	}
	g := b.tables[0].mult * sum
	if b.opts.MoveCostPenalty > 0 && b.home != nil && b.home[v] >= 0 {
		if cur == b.home[v] {
			g -= b.opts.MoveCostPenalty
		} else {
			g += b.opts.MoveCostPenalty
		}
	}
	return g
}

// moveExact applies one move, maintaining counts and weights immediately
// (the exact pairing interleaves moves with fresh gain reads) and, on the
// incremental path, the same net-delta bookkeeping the patched batch
// collector keeps.
func (b *bisection) moveExact(v int32) {
	cur := b.side[v]
	oth := 1 - cur
	b.side[v] = oth
	wv := int64(b.g.DataWeight(v))
	b.w[cur] -= wv
	b.w[oth] += wv
	if b.active != nil {
		b.applyMovePatched(v)
		b.lastMoved = append(b.lastMoved, v)
		return
	}
	b.transferCounts(v)
}

// applyExact runs the "ideal serial implementation" the paper describes as
// the reference (Section 3.4): both sides' candidates are consumed in exact
// (gain desc, id asc) order and paired greedily from the top. Each pair's
// gains are re-evaluated against the current state before applying, so
// every applied pair strictly improves the objective — this is what rules
// out the batch-move oscillation and makes the objective monotone.
// One-sided positive-gain extras then use the ε headroom. Fully
// deterministic.
//
// Instead of materializing and sorting both full queues every iteration,
// the order comes from two cursors over the maintained gain bins: bins are
// consumed best-first and sorted in place, lazily, on first touch, so an
// iteration that pairs only a handful of vertices sorts only the bins it
// actually reaches.
//
// The batch size is only known at the end, so net deltas are always
// collected (two int adds per transfer) and either diffed into patches or
// discarded in favor of the sweep, depending on the realized moved count.
func (b *bisection) applyExact(iter int) int64 {
	_ = iter
	b.lastMoved = b.lastMoved[:0] // repopulated by moveExact
	b.syncBins()
	cur0 := newBinCursor(b.bins, b.gains, 0)
	cur1 := newBinCursor(b.bins, b.gains, 1)
	var moved int64
	for {
		u, gu0, ok0 := cur0.peek()
		v, gv0, ok1 := cur1.peek()
		if !ok0 || !ok1 {
			break
		}
		// Stop once even the stale (optimistic upper-bound order) sums are
		// non-positive.
		if gu0+gv0 <= 0 {
			break
		}
		cur0.advance()
		cur1.advance()
		// Both vertices may have been affected by earlier moves in this
		// pass; re-evaluate before committing.
		gu := b.freshGain(u)
		gv := b.freshGain(v)
		if gu+gv <= 0 {
			continue
		}
		b.moveExact(u)
		b.moveExact(v)
		moved += 2
	}
	// One-sided extras: positive-gain leftovers into the other side's
	// remaining headroom, continuing from where the pairing stopped.
	for s := 0; s < 2; s++ {
		oth := 1 - s
		c := &cur0
		if s == 1 {
			c = &cur1
		}
		for {
			v, g, ok := c.peek()
			if !ok || g <= 0 {
				break
			}
			wv := float64(b.g.DataWeight(v))
			if float64(b.w[oth])+wv > b.capW[oth] {
				break
			}
			c.advance()
			if b.freshGain(v) <= 0 {
				continue
			}
			b.moveExact(v)
			moved++
		}
	}
	b.scanWork += cur0.work + cur1.work
	if b.active != nil {
		if int(moved)*sweepFallbackDiv < b.g.NumData() {
			b.finishPatch(b.lastMoved)
		} else {
			b.discardPatch()
		}
	}
	return moved
}
