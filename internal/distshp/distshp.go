// Package distshp implements the paper's distributed SHP: recursive
// bisection driven entirely inside the vertex-centric model (Sections 3.2
// and 3.3, Figure 3), running on the pregel engine.
//
// Each refinement iteration is four supersteps with barriers between them:
//
//	superstep 0: data vertices send their (changed) bucket to adjacent
//	             queries, which maintain neighbor data incrementally;
//	superstep 1: queries send each adjacent data vertex what it needs to
//	             bring its sibling-pair gain state up to date (see below);
//	superstep 2: data vertices compute Equation 1 move gains and register
//	             (direction, gain) proposals with the master through an
//	             aggregator — changed proposals only, see below;
//	superstep 3: the master's per-pair histogram matching produces move
//	             probabilities, broadcast via an aggregator; data vertices
//	             flip their coins and move.
//
// # The incremental message plane
//
// By default superstep 1 ships work proportional to churn, not to |E|: the
// same dirty-query delta scheme the in-process engine uses (core/direct.go),
// pushed across superstep message boundaries.
//
//   - Every data vertex carries persistent Equation 1 accumulators: sumCur =
//     Σ_q T[n_cur(q)−1] and sumOth = Σ_q T[n_sib(q)] over its adjacent
//     queries, for its current sibling pair.
//   - After a move round, a dirty query (one that received bucket updates)
//     diffs its per-bucket histogram and emits (query, bucket, cOld, cNew)
//     delta records — only for buckets whose counts changed, and only to the
//     clean members whose pair contains the changed bucket. Receivers patch
//     their accumulators through core.GainTables.DeltaOwn / DeltaAway.
//   - Members that moved (their own frame changed, so patched sums would
//     refer to the wrong pair side) instead receive a full msgGain
//     contribution from every adjacent query — all of which are dirty,
//     because the mover broadcast its new bucket — and resum from scratch.
//   - All gain-table values live on the shared dyadic grid (core's
//     gainGridBits), so patched accumulators land bit-for-bit on the same
//     floats a full resummation produces, in any order: the incremental and
//     full paths yield byte-identical partitions and histories.
//   - The master mirrors the in-process engine's two escape hatches: when an
//     iteration moves more than 1/rebuildFallbackDiv of the vertices, the
//     next superstep 1 is a full rebroadcast (patching would cost more than
//     a sweep), and every Options.RebuildEvery iterations a safety-net full
//     rebroadcast re-derives every accumulator from the histograms.
//
// # The changed-only proposal plane
//
// Superstep 2 applies the same admissibility idea to the aggregator plane. A
// data vertex whose accumulators saw no superstep-1 traffic and whose bucket
// is unchanged is stable: its gain is bit-identical to what it last proposed,
// so it neither recomputes nor ships anything. Everyone else recomputes and,
// only if the (direction, gain) actually changed, retracts the previously
// registered proposal and asserts the new one (plus per-bucket weight deltas
// when the bucket changed). The master folds these assert/retract deltas into
// persistent per-direction histograms and per-bucket weight totals, matches
// over the persistent state each iteration, and resets it at level start —
// where every vertex re-registers from scratch. Late supersteps therefore
// ship proposal traffic proportional to the moving frontier, while
// full-rebroadcast iterations (sweep fallback, RebuildEvery safety net,
// DisableIncremental) recompute every gain — verifying the maintained
// proposal state — but still ship only the changes, so the maintained and
// recomputed regimes stay byte-identical.
//
// Options.DisableIncremental restores the full per-iteration rebroadcast:
// every query re-sends every member's msgGain contribution each iteration.
//
// Recursive levels are scheduled by the master: when a level converges
// (moved fraction below threshold) or exhausts its iterations, every data
// vertex splits its bucket b into 2b or 2b+1 and the next level begins.
// K must be a power of two (the configuration the paper's distributed
// experiments use).
package distshp

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/pregel"
	"shp/internal/rng"
)

// Options configures a distributed run.
type Options struct {
	// K is the number of buckets; must be a power of two, >= 2.
	K int
	// Epsilon is the allowed imbalance (default 0.05). Distributed SHP
	// preserves balance in expectation, exactly as the paper's protocol.
	Epsilon float64
	// P is the fanout probability (default 0.5).
	P float64
	// ItersPerLevel bounds refinement iterations per bisection level
	// (default 20, the paper's SHP-2 setting).
	ItersPerLevel int
	// MinMoveFraction advances to the next level early when the moved
	// fraction drops below it (default 0.001).
	MinMoveFraction float64
	// Workers is the number of simulated machines (default 4, the paper's
	// cluster size).
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
	// Transport selects the engine's message-plane backend (nil means the
	// in-process transport; pregel.TCPTransport() ships real frames over
	// loopback sockets). Partitions are transport-invariant for a fixed
	// seed.
	Transport pregel.Transport
	// DisableCombining turns off sender-side message combining (ablation:
	// the combined run moves strictly fewer cross-worker envelopes).
	DisableCombining bool
	// DisableLookahead turns off the final-p-fanout approximation.
	DisableLookahead bool
	// DisableDirtyOnly makes data vertices re-send their bucket to queries
	// every iteration instead of only after moves (ablation of the
	// neighbor-data caching optimization from Section 3.3). Every neighbor
	// then counts as freshly updated, so it also implies full per-iteration
	// gain rebroadcasts.
	DisableDirtyOnly bool
	// DisableIncremental turns off the dirty-query delta plane: superstep 1
	// rebroadcasts every member's full gain contribution each iteration
	// instead of patching persistent accumulators with per-bucket count
	// diffs. Both paths produce byte-identical partitions and histories for
	// a fixed seed; this is an ablation/debugging knob, not a quality
	// trade-off.
	DisableIncremental bool
	// RebuildEvery is the period, in refinement iterations within a level,
	// of the incremental plane's safety-net full gain rebroadcast (the
	// rebroadcast re-derives exactly the maintained accumulators, so it
	// never changes results — it bounds the blast radius of any future
	// maintenance bug). 0 means the default of 64 (mirroring the in-process
	// engine's NDRebuildEvery); negative disables the safety net.
	RebuildEvery int
	// Checkpointer stores superstep snapshots for worker-failure recovery
	// (nil means an in-process store, pregel.NewMemoryCheckpointer; use
	// pregel.NewDiskCheckpointer to survive process death). Snapshots cover
	// vertex state — including the persistent dyadic-grid accumulators —
	// pending inboxes, aggregated values, and the master's persistent
	// histograms, so a recovered run resumes the incremental protocol
	// without a rebroadcast and finishes byte-identical to an undisturbed
	// one.
	Checkpointer pregel.Checkpointer
	// CheckpointEvery is the snapshot cadence in supersteps (default 64).
	CheckpointEvery int
	// DisableCheckpointing turns the checkpoint plane off entirely
	// (ablation: any worker failure then aborts the run).
	DisableCheckpointing bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.P == 0 {
		o.P = 0.5
	}
	if o.ItersPerLevel == 0 {
		o.ItersPerLevel = 20
	}
	if o.MinMoveFraction == 0 {
		o.MinMoveFraction = 0.001
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.RebuildEvery == 0 {
		o.RebuildEvery = 64
	}
	return o
}

// rebuildFallbackDiv sets the deterministic patch-vs-rebroadcast switch, the
// distributed mirror of core's sweepFallbackDiv: when an iteration moves
// more than NumData/rebuildFallbackDiv vertices, delta traffic to the
// members of dirty queries would exceed one full rebroadcast, so the master
// schedules a full superstep 1 instead. The threshold is tighter than the
// in-process engine's 1/8 because the cost model differs: a full superstep 1
// is heavily sender-side combined (one envelope per worker/destination pair)
// while delta records ship per dirty query, so on the wire the break-even
// sits near 1/32 moved (measured across the planted/random test graphs).
// Both regimes produce identical state, so this is a pure performance knob.
const rebuildFallbackDiv = 32

// IterRecord is one refinement iteration's master-side summary.
type IterRecord struct {
	// Level is the bisection level the iteration ran at.
	Level int
	// Iter is the iteration index within the level.
	Iter int
	// Moved counts the data vertices that moved in this iteration.
	Moved int64
	// Fanout is the average fanout over the current level's buckets of the
	// assignment this iteration's proposals were computed from (i.e. before
	// its moves), maintained by the master from per-query live-entry diffs
	// at zero extra graph passes.
	Fanout float64
}

// Result is a finished distributed partitioning.
type Result struct {
	Assignment partition.Assignment
	K          int
	// Levels actually executed (log2 K).
	Levels int
	// Iterations across all levels.
	Iterations int
	// History records every refinement iteration in order. Iteration j
	// occupies supersteps 4j..4j+3 of Stats.PerSuperstep, so per-iteration
	// traffic can be attributed to protocol phases.
	History []IterRecord
	// Engine statistics: per-superstep message and byte counts.
	Stats *pregel.Stats
	// Elapsed wall-clock time.
	Elapsed time.Duration
	// TotalTime is Elapsed multiplied by the worker count: the paper's
	// "total time" metric (Figure 5).
	TotalTime time.Duration
}

// LateGainBytes sums the gain/delta-superstep traffic of the run's "late"
// iterations — those whose superstep-1 workload was driven by at most
// maxMovedFraction of the data vertices moving — and returns the iteration
// count alongside the bytes. Iteration j's gain superstep (4j+1) ships the
// consequences of iteration j-1's moves, so the filter reads the previous
// iteration's Moved; level-start iterations are excluded because their
// superstep 1 is the O(|E|) registration rebroadcast on every plane. This is
// the one place the late-traffic attribution lives: tests, benchmarks, the
// CLI, and the dist-delta experiment all report through it.
func (r *Result) LateGainBytes(maxMovedFraction float64) (iters int, bytes int64) {
	if r.Stats == nil || len(r.Assignment) == 0 {
		return 0, 0
	}
	budget := maxMovedFraction * float64(len(r.Assignment))
	for j, rec := range r.History {
		if rec.Iter == 0 {
			continue // level start: registration rebroadcast, not churn-driven
		}
		// Iter > 0 implies History[j-1] is the same level's previous
		// iteration, whose moves produced this superstep's traffic.
		if float64(r.History[j-1].Moved) > budget {
			continue
		}
		if s := 4*j + 1; s < len(r.Stats.PerSuperstep) {
			iters++
			bytes += r.Stats.PerSuperstep[s].BytesSent
		}
	}
	return iters, bytes
}

// LateProposalBytes sums the proposal-superstep aggregator traffic (AggBytes
// of supersteps 4j+2) of the run's late iterations, under the same
// late-iteration filter as LateGainBytes: iteration j's proposal superstep
// ships the retract/assert deltas caused by iteration j-1's moves, and
// level-start iterations are excluded because their proposal superstep
// registers every vertex. With the changed-only proposal plane this shrinks
// with the moving frontier instead of staying O(directions x bins).
func (r *Result) LateProposalBytes(maxMovedFraction float64) (iters int, bytes int64) {
	if r.Stats == nil || len(r.Assignment) == 0 {
		return 0, 0
	}
	budget := maxMovedFraction * float64(len(r.Assignment))
	for j, rec := range r.History {
		if rec.Iter == 0 {
			continue // level start: full proposal registration, not churn-driven
		}
		if float64(r.History[j-1].Moved) > budget {
			continue
		}
		if s := 4*j + 2; s < len(r.Stats.PerSuperstep) {
			iters++
			bytes += r.Stats.PerSuperstep[s].AggBytes
		}
	}
	return iters, bytes
}

// message kinds exchanged between vertices. The combinable kinds travel as
// pointers — *msgGain, *msgBucketBatch, *msgDeltaBatch — so the combiner
// folds into the outbox's message in place instead of allocating a new
// value per fold; msgBucket and msgDelta are small values that a fold
// promotes to a batch. Each pointer is sent once and then belongs to the
// engine (see pregel.Context.Send).
type (
	// msgBucket: data -> query, "I am now in bucket New". Queries key
	// their incremental neighbor-data maintenance on Data alone (first
	// sight registers, later sights move), so that pair is the entire
	// wire payload.
	msgBucket struct {
		Data int32
		New  int32
	}
	// msgBucketBatch is the sender-side-combined form of msgBucket: all of
	// one worker's bucket updates for one query, shipped as a single
	// envelope (Giraph-style message batching on the count-aggregation
	// superstep). It travels as *msgBucketBatch.
	msgBucketBatch []msgBucket
	// msgGain: query -> data, the neighbor-data contribution to the
	// receiver's Equation 1 gain, already mapped through the level's gain
	// table. This is the combinable reduction of the paper's r = 2
	// neighbor-data counts (Section 3.3): contributions from different
	// queries simply add, so sender-side combining collapses each worker's
	// per-data traffic to one message. A vertex that receives msgGain
	// resums its persistent accumulators from scratch (every adjacent
	// query is guaranteed to have sent one). It travels as *msgGain, which
	// the combiner adds into in place.
	msgGain struct {
		Cur, Oth float64 // sum of T[n(current bucket)-1] and T[n(sibling)]
	}
	// msgDelta: query -> data, one changed neighbor-data entry of a dirty
	// query: bucket Bucket's adjacent-data count went COld -> CNew (0 =
	// entry absent). Sent only to clean members whose sibling pair contains
	// Bucket; receivers patch their persistent accumulators through the
	// exact dyadic-grid arithmetic of core.GainTables.DeltaOwn/DeltaAway.
	// The record deliberately omits the sending query's id: patch
	// arithmetic is a sum of per-record table-value differences, so the
	// receiver never needs to know which query a record came from, and
	// dropping the id cuts the wire size of every late-iteration gain
	// superstep by a quarter.
	msgDelta struct {
		Bucket int32
		COld   int32
		CNew   int32
	}
	// msgDeltaBatch is the sender-side-combined form of msgDelta: all of
	// one worker's delta records for one data vertex, shipped as a single
	// envelope. Exact patch arithmetic makes the record order irrelevant
	// to the result; combining preserves send order anyway. It travels as
	// *msgDeltaBatch.
	msgDeltaBatch []msgDelta
)

// combine is the engine combiner: msgGain adds; msgBucket and msgDelta
// batch. The engine applies it in the per-destination outbox, so all three
// cut the envelope count that crosses workers. Folds mutate and return the
// first argument whenever it is already a pointer kind; a first value
// (msgBucket, msgDelta) starts a new batch. The protocol never mixes kinds
// for one destination in one superstep (a vertex is either a mover — gains
// from every adjacent query — or clean — deltas only), so cross-kind merges
// are a protocol violation and panic.
func combine(a, b pregel.Message) pregel.Message {
	switch x := a.(type) {
	case *msgGain:
		y := b.(*msgGain)
		x.Cur += y.Cur
		x.Oth += y.Oth
		return x
	case msgBucket:
		batch := append(make(msgBucketBatch, 0, bucketBatchCap), x)
		return (&batch).fold(b)
	case *msgBucketBatch:
		return x.fold(b)
	case msgDelta:
		batch := append(make(msgDeltaBatch, 0, deltaBatchCap), x)
		return (&batch).fold(b)
	case *msgDeltaBatch:
		return x.fold(b)
	}
	//shp:panics(invariant: the combiner is wired next to the codec registry; an unknown kind is a registration bug caught by codec-symmetry)
	panic(fmt.Sprintf("distshp: uncombinable message %T", a))
}

// bucketBatchCap and deltaBatchCap size a new batch so that typical folds
// append without regrowing: a level start sends each query one update per
// member (about twenty on the benchmark's social graphs, split over the
// workers), and a data vertex rarely collects more than a few delta records
// from one worker.
const (
	bucketBatchCap = 8
	deltaBatchCap  = 4
)

// fold appends a msgBucket or the records of a *msgBucketBatch in place.
func (b *msgBucketBatch) fold(m pregel.Message) *msgBucketBatch {
	if y, ok := m.(msgBucket); ok {
		*b = append(*b, y)
	} else {
		*b = append(*b, *m.(*msgBucketBatch)...)
	}
	return b
}

// fold appends a msgDelta or the records of a *msgDeltaBatch in place.
func (b *msgDeltaBatch) fold(m pregel.Message) *msgDeltaBatch {
	if y, ok := m.(msgDelta); ok {
		*b = append(*b, y)
	} else {
		*b = append(*b, *m.(*msgDeltaBatch)...)
	}
	return b
}

// dataState is the per-data-vertex state.
type dataState struct {
	d      int32
	bucket int32 // bucket id within the current level, in [0, 2^(level+1))
	moved  bool  // moved in the previous iteration (drives dirty-only sends)
	level  int
	// Persistent Equation 1 accumulators for the current sibling pair:
	// sumCur = Σ_q T[n_bucket(q)−1], sumOth = Σ_q T[n_sibling(q)]. Resummed
	// from msgGain after a move (or rebroadcast), patched from msgDelta
	// records otherwise; exact dyadic-grid arithmetic keeps the two
	// maintenance regimes bit-identical.
	sumCur, sumOth float64
	// Gain for moving to the sibling bucket, derived in superstep 2.
	gain float64
	// The proposal currently registered on the master's persistent
	// histograms: direction key, gain, and the level it was asserted at
	// (propLevel != level means nothing is registered at this level yet).
	// Superstep 2 retracts/asserts against these, shipping only changes.
	propKey   uint64
	propGain  float64
	propLevel int
}

// applyDelta folds one dirty-query delta record into the vertex's persistent
// accumulators. Records are routed by the sender to members whose pair
// contains the changed bucket, so anything else is a protocol violation.
func (st *dataState) applyDelta(tb core.GainTables, r msgDelta) {
	switch r.Bucket {
	case st.bucket:
		st.sumCur += tb.DeltaOwn(r.COld, r.CNew)
	case st.bucket ^ 1:
		st.sumOth += tb.DeltaAway(r.COld, r.CNew)
	default:
		//shp:panics(invariant: routing guarantees deltas reach only members of the changed pair; a miss means corrupt accumulators)
		panic(fmt.Sprintf("distshp: delta for bucket %d reached vertex %d in bucket %d",
			r.Bucket, st.d, st.bucket))
	}
}

// queryState is the per-query-vertex state: the paper's "neighbor data",
// held mapless in the shared kernel's canonical sorted-slice layout
// (core.NDEntry) so the gain superstep performs zero hash operations. The
// member registry is an int32 slice aligned with the query's sorted
// adjacency list — member lookups are binary searches, and the per-level
// reset is a linear fill instead of a map rebuild.
type queryState struct {
	q     int32
	level int
	// ent is the live neighbor data, sorted by bucket: the distributed
	// mirror of one in-process CSR segment, maintained through the same
	// kernel slice operations (core.NDInc/NDDec) and diffed with the same
	// core.NDDiff, so delta records match the in-process diff bit for bit.
	ent []core.NDEntry
	// memberBucket[i] is the last known bucket of the i-th member of the
	// query's sorted adjacency list, -1 while unregistered at this level.
	memberBucket []int32
	// prevLen is len(ent) after the previous superstep-1, so the global
	// live-entry total (average fanout) can be maintained by the master from
	// per-query diffs instead of graph passes.
	prevLen int32

	// Per-superstep scratch, reused so the steady state allocates nothing:
	// snap holds the pre-superstep segment (taken on the first tracked
	// update, diffed by deltaRecords), moved/movedIdx flag this superstep's
	// movers by member index, changes/recs are the diff output buffers.
	snap     []core.NDEntry
	snapped  bool
	moved    []bool
	movedIdx []int32
	changes  []core.NDChange
	recs     []msgDelta
}

// register (re)initializes the member registry for a new level.
func (st *queryState) register(level, degree int) {
	st.level = level
	st.ent = st.ent[:0]
	if st.memberBucket == nil {
		st.memberBucket = make([]int32, degree)
		st.moved = make([]bool, degree)
	}
	for i := range st.memberBucket {
		st.memberBucket[i] = -1
	}
}

// applyUpdate folds one bucket update into the neighbor data. members is
// the query's sorted adjacency list. When track is set (the incremental
// plane), the pre-superstep segment is snapshotted on first touch and the
// updating member is flagged as a mover, so deltaRecords can diff the net
// per-bucket changes and the send loop can route full contributions to
// movers only.
func (st *queryState) applyUpdate(members []int32, mb msgBucket, track bool) {
	i, ok := slices.BinarySearch(members, mb.Data)
	if !ok {
		//shp:panics(invariant: only adjacent data vertices may update a query; a stray update corrupts neighbor histograms)
		panic(fmt.Sprintf("distshp: bucket update from non-member %d reached query %d", mb.Data, st.q))
	}
	if track {
		if !st.snapped {
			st.snapped = true
			st.snap = append(st.snap[:0], st.ent...)
		}
		if !st.moved[i] {
			st.moved[i] = true
			st.movedIdx = append(st.movedIdx, int32(i))
		}
	}
	if prev := st.memberBucket[i]; prev >= 0 {
		st.ent = core.NDDec(st.ent, prev)
	}
	st.memberBucket[i] = mb.New
	st.ent = core.NDInc(st.ent, mb.New)
}

// deltaRecords diffs the pre-superstep snapshot against the current counts
// into canonical sorted-by-bucket (bucket, cOld, cNew) records, skipping
// buckets whose net count is unchanged. 0 means "entry absent" on either
// side.
func (st *queryState) deltaRecords() []msgDelta {
	st.changes = core.NDDiff(st.changes[:0], st.snap, st.ent)
	st.recs = st.recs[:0]
	for _, c := range st.changes {
		st.recs = append(st.recs, msgDelta{Bucket: c.B, COld: c.COld, CNew: c.CNew})
	}
	return st.recs
}

// resetSuperstep clears the tracked-superstep scratch in O(#movers).
func (st *queryState) resetSuperstep() {
	for _, i := range st.movedIdx {
		st.moved[i] = false
	}
	st.movedIdx = st.movedIdx[:0]
	st.snapped = false
}

// proposalAgg aggregates per-direction gain histograms for the master.
// Key is direction: bucket*2 + side (side 0 = moving to even sibling).
type proposalAgg struct {
	hists map[uint64]*histPair
}

type histPair struct {
	hist core.DirHist
}

func newProposalAgg() pregel.Aggregator { return &proposalAgg{hists: map[uint64]*histPair{}} }

// Add folds one proposal delta in: an assert records the gain, a retract
// removes a previously asserted one. A worker's accumulated value is a delta
// histogram (counts may be negative) destined for the master's persistent
// per-direction state.
func (a *proposalAgg) Add(v interface{}) {
	p := v.(proposal)
	h, ok := a.hists[p.key]
	if !ok {
		h = &histPair{}
		a.hists[p.key] = h
	}
	if p.retract {
		h.hist.Remove(p.gain)
	} else {
		h.hist.Add(p.gain)
	}
}

// Merge folds another proposalAgg in. Keys are folded in ascending order
// so map iteration order never reaches the merged state: first-seen keys
// adopt the other side's histPair pointer, and the byte-identical
// equivalence suites pin the merged bytes.
func (a *proposalAgg) Merge(o pregel.Aggregator) {
	other := o.(*proposalAgg).hists
	for _, key := range sortedHistKeys(other) {
		h := other[key]
		if mine, ok := a.hists[key]; ok {
			mine.hist.Merge(&h.hist)
		} else {
			a.hists[key] = h
		}
	}
}

// Value returns the histogram map.
func (a *proposalAgg) Value() interface{} { return a.hists }

// WireSize reports what shipping this worker's accumulated proposal deltas
// to the master would cost: an 8-byte direction key plus each delta
// histogram's non-empty bins. Feeds pregel's AggBytes accounting.
func (a *proposalAgg) WireSize() int {
	n := 0
	//shp:ordered(integer sum over disjoint entries; exact and order-free)
	for _, h := range a.hists {
		n += 8 + h.hist.WireSize()
	}
	return n
}

type proposal struct {
	key     uint64
	gain    float64
	retract bool
}

// weightAgg aggregates per-bucket weights (for the master's ε headroom).
type weightAgg struct{ w map[int32]int64 }

func newWeightAgg() pregel.Aggregator { return &weightAgg{w: map[int32]int64{}} }

// Add folds a (bucket, weight) sample in.
func (a *weightAgg) Add(v interface{}) {
	s := v.(bucketWeight)
	a.w[s.bucket] += s.weight
}

// Merge folds another weightAgg in, bucket-ascending so the fold order is
// reproducible (int64 addition is associative, but the discipline is
// uniform: aggregator merges never iterate maps raw).
func (a *weightAgg) Merge(o pregel.Aggregator) {
	ow := o.(*weightAgg).w
	for _, b := range sortedWeightBuckets(ow) {
		a.w[b] += ow[b]
	}
}

// Value returns the weight map.
func (a *weightAgg) Value() interface{} { return a.w }

// WireSize reports the accumulated weight deltas' shipping cost: a 4-byte
// bucket id plus an 8-byte weight per entry.
func (a *weightAgg) WireSize() int { return 12 * len(a.w) }

type bucketWeight struct {
	bucket int32
	weight int64
}

// sortedHistKeys returns m's direction keys in ascending order, so callers
// never fold histogram state in map iteration order.
func sortedHistKeys(m map[uint64]*histPair) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedWeightBuckets returns m's bucket ids in ascending order.
func sortedWeightBuckets(m map[int32]int64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// probsValue is what the master broadcasts: per-direction probability
// tables.
type probsValue map[uint64]*core.ProbTable

// Partition runs distributed SHP-2 on g.
func Partition(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.K < 2 || opts.K&(opts.K-1) != 0 {
		return nil, fmt.Errorf("distshp: K must be a power of two >= 2, got %d", opts.K)
	}
	if g.NumData() == 0 {
		return nil, errors.New("distshp: empty graph")
	}
	start := time.Now() //shp:nondet(wall timing for Result.Elapsed only; never feeds the partition)

	levels := 0
	for 1<<levels < opts.K {
		levels++
	}
	numD := g.NumData()
	numQ := g.NumQueries()
	maxN := g.MaxQueryDegree()

	// Gain tables per level (lookahead t halves as levels deepen).
	tables := make([]core.GainTables, levels)
	for l := 0; l < levels; l++ {
		t := 1
		if !opts.DisableLookahead {
			t = opts.K >> (l + 1)
		}
		tables[l] = core.NewPFanoutTables(opts.P, t, maxN)
	}

	// Master-side schedule state (package-level type so the checkpoint
	// plane can snapshot and restore it; see snapshot.go).
	sched := &schedule{hists: map[uint64]*histPair{}, weights: map[int32]int64{}}
	idealPerBucket := float64(g.TotalDataWeight()) / float64(opts.K)

	vertices := make([]*pregel.Vertex, 0, numD+numQ)
	for d := 0; d < numD; d++ {
		vertices = append(vertices, &pregel.Vertex{
			ID:    pregel.VertexID(d),
			State: &dataState{d: int32(d), bucket: -1, level: -1, propLevel: -1},
		})
	}
	for q := 0; q < numQ; q++ {
		vertices = append(vertices, &pregel.Vertex{
			ID:    pregel.VertexID(numD + q),
			State: &queryState{q: int32(q), level: -1},
		})
	}

	maxSupersteps := levels*opts.ItersPerLevel*4 + 8

	compute := func(ctx *pregel.Context, v *pregel.Vertex, msgs []pregel.Message) {
		switch st := v.State.(type) {
		case *dataState:
			computeData(ctx, g, st, msgs, opts, tables)
		case *queryState:
			computeQuery(ctx, g, st, msgs, opts, tables)
		}
	}

	master := func(step int, agg map[string]interface{}) (bool, map[string]interface{}) {
		set := map[string]interface{}{}
		phase := sched.phase
		switch phase {
		case 2:
			// Proposal deltas are in: fold them into the persistent state,
			// then match histograms pair by pair over it. Adopting an
			// aggregator's histPair pointer for a first-seen key is safe
			// because a retract always follows an assert of the same key, so
			// a key absent from the persistent map can only carry asserts.
			if v, ok := agg["proposals"]; ok {
				deltas := v.(map[uint64]*histPair)
				for _, key := range sortedHistKeys(deltas) {
					h := deltas[key]
					if mine, exists := sched.hists[key]; exists {
						mine.hist.Merge(&h.hist)
					} else {
						sched.hists[key] = h
					}
				}
			}
			if v, ok := agg["weights"]; ok {
				w := v.(map[int32]int64)
				for _, b := range sortedWeightBuckets(w) {
					sched.weights[b] += w[b]
				}
			}
			probs := probsValue{}
			eps := opts.Epsilon * float64(sched.level+1) / float64(levels)
			t := opts.K >> (sched.level + 1)
			cap0 := idealPerBucket * float64(t) * (1 + eps)
			var empty histPair
			// Direction-key ascending: within a sibling pair (key, key^1)
			// the lower key always plays the A side of MatchHistograms, so
			// the broadcast probability tables are bit-reproducible.
			for _, key := range sortedHistKeys(sched.hists) {
				h := sched.hists[key]
				if _, done := probs[key]; done {
					continue
				}
				rkey := key ^ 1 // opposite direction of the same pair
				rh := sched.hists[rkey]
				if rh == nil {
					rh = &empty
				}
				// directionKey(b) == b: the direction "from b to its
				// sibling" is identified by b itself, so direction key
				// receives into bucket key^1 and vice versa.
				dstA := int32(uint32(key ^ 1))
				dstB := int32(uint32(key))
				extraA := int64(0)
				extraB := int64(0)
				if head := cap0 - float64(sched.weights[dstA]); head > 0 {
					extraA = int64(head * 0.9)
				}
				if head := cap0 - float64(sched.weights[dstB]); head > 0 {
					extraB = int64(head * 0.9)
				}
				pa, pb := core.MatchHistograms(&h.hist, &rh.hist, extraA, extraB)
				probs[key] = &pa
				if rh != &empty {
					probs[rkey] = &pb
				}
			}
			set["probs"] = probs
			set["level"] = sched.level
			set["iter"] = sched.iter
			sched.phase = 3
			return false, set
		case 3:
			// Moves applied; record the iteration and decide whether to
			// advance level.
			moved := int64(0)
			if v, ok := agg["moved"]; ok {
				moved = v.(int64)
			}
			sched.iterations++
			sched.history = append(sched.history, IterRecord{
				Level: sched.level, Iter: sched.iter, Moved: moved,
				Fanout: float64(sched.ndEntries) / float64(numQ),
			})
			sched.iter++
			frac := float64(moved) / float64(numD)
			// Schedule the incremental plane's escape hatches for the next
			// iteration: a sweep fallback when patching would cost more than
			// a rebroadcast, and a periodic safety-net rebroadcast. Both
			// regimes produce identical bits, so these are pure perf knobs.
			if !opts.DisableIncremental {
				sched.rebuildNext = moved*rebuildFallbackDiv >= int64(numD)
				if opts.RebuildEvery > 0 && sched.iter%opts.RebuildEvery == 0 {
					sched.rebuildNext = true
				}
			}
			if sched.iter >= opts.ItersPerLevel || frac < opts.MinMoveFraction {
				sched.level++
				sched.iter = 0
				// Level start re-registers every vertex, which already forces
				// full gain contributions everywhere. The proposal plane
				// re-registers from scratch too: drop the persistent state.
				sched.rebuildNext = false
				sched.hists = map[uint64]*histPair{}
				sched.weights = map[int32]int64{}
				if sched.level >= levels {
					return true, nil
				}
			}
			sched.phase = 0
			set["level"] = sched.level
			set["iter"] = sched.iter
			return false, set
		default:
			if phase == 0 && sched.rebuildNext {
				// Visible to the queries during the upcoming superstep 1.
				set["rebuild"] = true
				sched.rebuildNext = false
			}
			if phase == 1 {
				if v, ok := agg["fanoutDiff"]; ok {
					sched.ndEntries += v.(int64)
				}
			}
			sched.phase = phase + 1
			set["level"] = sched.level
			set["iter"] = sched.iter
			return false, set
		}
	}

	engOpts := pregel.Options{
		Workers:       opts.Workers,
		Compute:       compute,
		Master:        master,
		MaxSupersteps: maxSupersteps,
		Aggregators: map[string]pregel.AggregatorDef{
			"proposals":  {New: newProposalAgg},
			"weights":    {New: newWeightAgg},
			"moved":      {New: func() pregel.Aggregator { return &pregel.CountAggregator{} }},
			"fanoutDiff": {New: func() pregel.Aggregator { return &pregel.CountAggregator{} }},
		},
		Transport: opts.Transport,
		Codecs:    newRegistry(),
	}
	if !opts.DisableCombining {
		engOpts.Combiner = combine
	}
	if !opts.DisableCheckpointing {
		engOpts.Checkpointer = opts.Checkpointer
		if engOpts.Checkpointer == nil {
			engOpts.Checkpointer = pregel.NewMemoryCheckpointer()
		}
		engOpts.CheckpointEvery = opts.CheckpointEvery
		engOpts.Snapshots = newSnapshotRegistry()
		engOpts.MasterSnapshot = func() []byte { return sched.appendBinary(nil) }
		engOpts.MasterRestore = sched.restoreBinary
	}
	eng, err := pregel.NewEngine(engOpts, vertices)
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}

	assignment := make(partition.Assignment, numD)
	for d := 0; d < numD; d++ {
		st := eng.Vertex(pregel.VertexID(d)).State.(*dataState)
		b := st.bucket
		// The final level's buckets are the result. If the run stopped at
		// level L, bucket ids are already in [0, 2^L) = [0, K).
		assignment[d] = b
	}
	elapsed := time.Since(start) //shp:nondet(wall timing for Result.Elapsed only; never feeds the partition)
	return &Result{
		Assignment: assignment,
		K:          opts.K,
		Levels:     levels,
		Iterations: sched.iterations,
		History:    sched.history,
		Stats:      stats,
		Elapsed:    elapsed,
		TotalTime:  elapsed * time.Duration(opts.Workers),
	}, nil
}

// computeData is the data-vertex program.
func computeData(ctx *pregel.Context, g *hypergraph.Bipartite, st *dataState,
	msgs []pregel.Message, opts Options, tables []core.GainTables) {

	phase := ctx.Superstep() % 4
	level := 0
	if v := ctx.ReadAggregator("level"); v != nil {
		level = v.(int)
	}
	switch phase {
	case 0:
		if level != st.level {
			// Level start: split my bucket. Level 0: bucket = coin in {0,1};
			// deeper: bucket = 2*old + coin.
			old := st.bucket
			base := int32(0)
			if st.level >= 0 && old >= 0 {
				base = old * 2
			}
			coin := int32(0)
			if rng.CoinAt(opts.Seed^0x51DE, rng.Mix(uint64(level)+1, uint64(st.d))) >= 0.5 {
				coin = 1
			}
			st.bucket = base + coin
			st.level = level
			st.moved = false
			// (Re-)register with all queries.
			for _, q := range g.DataNeighbors(st.d) {
				ctx.Send(pregel.VertexID(g.NumData()+int(q)), msgBucket{Data: st.d, New: st.bucket})
			}
		} else if st.moved || opts.DisableDirtyOnly {
			for _, q := range g.DataNeighbors(st.d) {
				ctx.Send(pregel.VertexID(g.NumData()+int(q)), msgBucket{Data: st.d, New: st.bucket})
			}
			st.moved = false
		}
	case 1:
		// Queries act; data idles.
	case 2:
		// Bring the persistent Equation 1 accumulators up to date and
		// register the gain for moving to the sibling bucket with the master.
		// msgGain means "resum from scratch" (movers and rebroadcast
		// iterations — every adjacent query sent a contribution); msgDelta
		// patches in place. The protocol never mixes the two for one vertex
		// in one superstep.
		//
		// Admissibility gate: no superstep-1 traffic and an unchanged bucket
		// mean the accumulators — and so the gain — are bit-identical to the
		// registered proposal. Stable vertices neither recompute nor ship,
		// so late supersteps cost only the moving frontier on this plane.
		// (The bucket check catches zero-degree movers, whose bucket flips
		// without any message traffic.)
		key := directionKey(st.bucket)
		if len(msgs) == 0 && st.propLevel == level && key == st.propKey {
			return
		}
		tb := tables[level]
		sumCur, sumOth := 0.0, 0.0
		gains, deltas := 0, 0
		for _, m := range msgs {
			switch x := m.(type) {
			case *msgGain:
				gains++
				sumCur += x.Cur
				sumOth += x.Oth
			case msgDelta:
				deltas++
				st.applyDelta(tb, x)
			case *msgDeltaBatch:
				deltas++
				for _, r := range *x {
					st.applyDelta(tb, r)
				}
			}
		}
		if gains > 0 {
			if deltas > 0 {
				//shp:panics(invariant: the superstep schedule never mixes gain and delta planes; a mix means the barrier protocol broke)
				panic(fmt.Sprintf("distshp: vertex %d received %d gain and %d delta messages in one superstep",
					st.d, gains, deltas))
			}
			st.sumCur, st.sumOth = sumCur, sumOth
		}
		st.gain = tb.Mult() * (st.sumCur - st.sumOth)
		if st.propLevel == level {
			if key == st.propKey && st.gain == st.propGain {
				// Recomputed (rebroadcast verification) but unchanged:
				// nothing to ship. Keeps the maintained and full-rebroadcast
				// regimes' aggregate streams identical.
				return
			}
			// Retract the registered proposal; on a bucket change, move the
			// vertex's weight between the buckets' persistent totals.
			ctx.Aggregate("proposals", proposal{key: st.propKey, gain: st.propGain, retract: true})
			if oldB := int32(uint32(st.propKey)); oldB != st.bucket {
				ctx.Aggregate("weights", bucketWeight{bucket: oldB, weight: -int64(g.DataWeight(st.d))})
				ctx.Aggregate("weights", bucketWeight{bucket: st.bucket, weight: int64(g.DataWeight(st.d))})
			}
		} else {
			// First proposal of the level: register the full weight.
			ctx.Aggregate("weights", bucketWeight{bucket: st.bucket, weight: int64(g.DataWeight(st.d))})
		}
		ctx.Aggregate("proposals", proposal{key: key, gain: st.gain})
		st.propKey, st.propGain, st.propLevel = key, st.gain, level
	case 3:
		// Read the master's probabilities and maybe move.
		var probs probsValue
		if v := ctx.ReadAggregator("probs"); v != nil {
			probs = v.(probsValue)
		}
		pt := probs[directionKey(st.bucket)]
		if pt == nil {
			return
		}
		p := pt.ProbFor(st.gain)
		if p <= 0 {
			return
		}
		iter := 0
		if v := ctx.ReadAggregator("iter"); v != nil {
			iter = v.(int)
		}
		key := rng.Mix(rng.Mix(uint64(level)+1, uint64(iter)+1), uint64(st.d))
		if p >= 1 || rng.CoinAt(opts.Seed^0x30E5, key) < p {
			st.bucket ^= 1
			st.moved = true
			ctx.Aggregate("moved", int64(1))
		}
	}
}

// directionKey identifies the direction "from bucket b to its sibling".
// Because the pair is (b &^ 1, b | 1), the source bucket id itself is a
// collision-free key, and the opposite direction is key ^ 1.
func directionKey(bucket int32) uint64 {
	return uint64(uint32(bucket))
}

// computeQuery is the query-vertex program: maintain neighbor data
// incrementally (superstep 0's messages, possibly batched by the sender-side
// combiner) and, in superstep 1, bring each member's gain state up to date.
//
// On the incremental plane a dirty query sends a full msgGain contribution
// to each member that moved (it is rebuilding) and canonical (bucket, cOld,
// cNew) delta records to each clean member whose sibling pair contains a
// changed bucket; clean queries send nothing. With the plane disabled — or
// on a master-scheduled rebroadcast iteration — every query sends every
// member its full contribution, exactly the paper's per-iteration r = 2
// neighbor-data reduction.
func computeQuery(ctx *pregel.Context, g *hypergraph.Bipartite, st *queryState,
	msgs []pregel.Message, opts Options, tables []core.GainTables) {

	if ctx.Superstep()%4 != 1 {
		return // queries act in superstep 1 only
	}
	level := 0
	if v := ctx.ReadAggregator("level"); v != nil {
		level = v.(int)
	}
	full := opts.DisableIncremental
	if v := ctx.ReadAggregator("rebuild"); v != nil && v.(bool) {
		full = true
	}
	members := g.QueryNeighbors(st.q)
	if level != st.level {
		// Level changed: rebuild from the registration messages. Every
		// data vertex re-registers, so every member counts as a mover
		// and receives a full contribution below.
		st.register(level, len(members))
	}
	// Apply the bucket updates. On the incremental path, flag the
	// members that moved and snapshot the pre-superstep segment so the
	// net per-bucket changes can be diffed out afterwards. No map is
	// touched anywhere in this superstep: counts live in the kernel's
	// sorted-slice layout and member lookups are binary searches over
	// the sorted adjacency list.
	track := !full
	for _, m := range msgs {
		switch mb := m.(type) {
		case msgBucket:
			st.applyUpdate(members, mb, track)
		case *msgBucketBatch:
			for _, u := range *mb {
				st.applyUpdate(members, u, track)
			}
		}
	}
	// Fanout bookkeeping: hand the master the live-entry diff so it can
	// maintain the global average fanout without graph passes. Identical
	// on every path (count maintenance does not depend on the plane).
	if n := int32(len(st.ent)); n != st.prevLen {
		ctx.Aggregate("fanoutDiff", int64(n-st.prevLen))
		st.prevLen = n
	}
	// Send each member its gain-state update. Iterating the adjacency
	// list keeps send order — and with it uncombined floating-point
	// summation order — deterministic; grid-exact sums make the order
	// irrelevant to the result either way.
	tb := tables[level]
	if full {
		for i, d := range members {
			b := st.memberBucket[i]
			if b < 0 {
				continue
			}
			ctx.Send(pregel.VertexID(int(d)), &msgGain{Cur: tb.T[core.NDCount(st.ent, b)-1], Oth: tb.T[core.NDCount(st.ent, b^1)]})
		}
		return
	}
	if !st.snapped {
		return // clean query: members' accumulators are already exact
	}
	recs := st.deltaRecords()
	for i, d := range members {
		b := st.memberBucket[i]
		if b < 0 {
			continue
		}
		if st.moved[i] {
			ctx.Send(pregel.VertexID(int(d)), &msgGain{Cur: tb.T[core.NDCount(st.ent, b)-1], Oth: tb.T[core.NDCount(st.ent, b^1)]})
			continue
		}
		for _, r := range recs {
			if r.Bucket == b || r.Bucket == b^1 {
				ctx.Send(pregel.VertexID(int(d)), r)
			}
		}
	}
	st.resetSuperstep()
}
