package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"shp/internal/gen"
	"shp/internal/partition"
)

// The maintained SHP-k state must be invisible: after every iteration's
// pairing step, the neighbor data, every vertex's Equation 1 state and
// proposal must equal a rebuild from the current assignment; the
// per-direction histograms kept alive across iterations and epochs must
// equal a from-scratch accumulation of every vertex's current proposal,
// every cached probability table must equal a fresh match of the
// from-scratch histograms, and the maintained objective must equal
// objectiveFromND — all bit for bit. The rebuild comparison holds for any
// gain table; the histogram and objective comparisons need gains on the
// dyadic grid (default P, no MoveCostPenalty), the regime where maintained
// sums are exact.

// scratchPairHists accumulates the current proposals into per-direction
// histograms from scratch, in ascending vertex order.
func scratchPairHists(st *directState) map[uint64]*DirHist {
	ref := make(map[uint64]*DirHist)
	for v := range st.bucket {
		tgt := st.target[v]
		if tgt < 0 {
			continue
		}
		key := pairKey(st.bucket[v], tgt)
		h := ref[key]
		if h == nil {
			h = &DirHist{}
			ref[key] = h
		}
		h.Add(st.gains[v])
	}
	return ref
}

func sameHistBits(a, b *DirHist) bool {
	for i := 0; i < histBins; i++ {
		if a.posCount[i] != b.posCount[i] || a.negCount[i] != b.negCount[i] ||
			math.Float64bits(a.posSum[i]) != math.Float64bits(b.posSum[i]) ||
			math.Float64bits(a.negSum[i]) != math.Float64bits(b.negSum[i]) {
			return false
		}
	}
	return true
}

// checkAgainstRebuild compares st's maintained per-iteration state against
// a rebuild from the current assignment, bit for bit: bucket loads, the
// neighbor data (ndBuild into a fresh ndState), every vertex's static degree,
// its Equation 1 state (rebuildVertex) and its proposal (selectProposal over
// the rebuilt state). While the frontier is valid it must also be strictly
// ascending and be exactly the set of marked vertices. It runs after the
// proposal pass, when even vertices the pass skipped must hold exactly what
// a re-evaluation would produce.
func checkAgainstRebuild(st *directState) error {
	g := st.g
	bucketW := make([]int64, st.k)
	for v, b := range st.bucket {
		bucketW[b] += int64(g.DataWeight(int32(v)))
	}
	if !slices.Equal(bucketW, st.bucketW) {
		return fmt.Errorf("bucket loads %v, recount %v", st.bucketW, bucketW)
	}
	fresh := newNDState(g, st.k, 1)
	ndBuild(fresh, g, 1, st.k, st.bucket)
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		if !slices.Equal(st.nd.seg(q), fresh.seg(q)) {
			return fmt.Errorf("query %d: neighbor data %v, rebuild %v", q, st.nd.seg(q), fresh.seg(q))
		}
	}
	if st.nd.entries != fresh.entries {
		return fmt.Errorf("%d live neighbor-data entries, rebuild %d", st.nd.entries, fresh.entries)
	}
	ref := *st
	ref.nd = fresh
	ref.cand = make([][]proposalCand, len(st.cand))
	ref.propBase = make([]float64, len(st.propBase))
	s := ref.proposalScratches()[0]
	var buf []proposalCand // one candidate buffer, handed from vertex to vertex
	for v := range st.bucket {
		if w := st.computeWdeg(int32(v)); !sameFloatBits(st.wdegArr[v], w) {
			return fmt.Errorf("vertex %d: degree %v, recomputed %v", v, st.wdegArr[v], w)
		}
		ref.cand[v] = buf[:0]
		ref.rebuildVertex(s, v)
		buf = ref.cand[v]
		if !sameFloatBits(st.propBase[v], ref.propBase[v]) {
			return fmt.Errorf("vertex %d: base %v, rebuild %v", v, st.propBase[v], ref.propBase[v])
		}
		if !sameCands(st.cand[v], ref.cand[v]) {
			return fmt.Errorf("vertex %d: candidates %v, rebuild %v", v, st.cand[v], ref.cand[v])
		}
		tgt, gain := ref.selectProposal(v)
		if st.target[v] != tgt || !sameFloatBits(st.gains[v], gain) {
			return fmt.Errorf("vertex %d: proposal (%d, %v), re-selected (%d, %v)", v, st.target[v], st.gains[v], tgt, gain)
		}
	}
	if st.frontierValid {
		marked := 0
		for _, a := range st.active {
			if a != 0 {
				marked++
			}
		}
		for i, v := range st.frontier {
			if i > 0 && st.frontier[i-1] >= v {
				return fmt.Errorf("frontier not strictly ascending at %d: %d then %d", i, st.frontier[i-1], v)
			}
			if st.active[v] == 0 {
				return fmt.Errorf("frontier vertex %d is unmarked", v)
			}
		}
		if marked != len(st.frontier) {
			return fmt.Errorf("%d marked vertices, frontier holds %d", marked, len(st.frontier))
		}
	}
	return nil
}

func sameFloatBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCands(a, b []proposalCand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].b != b[i].b || a[i].refs != b[i].refs || !sameFloatBits(a[i].acc, b[i].acc) {
			return false
		}
	}
	return true
}

// checkMaintainedState compares st's maintained state — the rebuild
// comparison above, the pairing state, and the objective — against
// from-scratch references.
func checkMaintainedState(st *directState) error {
	if err := checkAgainstRebuild(st); err != nil {
		return err
	}
	ph := st.pairs
	for v := range st.bucket {
		want := int32(-1)
		if st.target[v] >= 0 {
			want = ph.slot(st.bucket[v], st.target[v])
			if want < 0 {
				return fmt.Errorf("vertex %d: direction %d->%d has no slot", v, st.bucket[v], st.target[v])
			}
		}
		if ph.dir[v] != want {
			return fmt.Errorf("vertex %d: recorded slot %d, want %d", v, ph.dir[v], want)
		}
		if want >= 0 && math.Float64bits(ph.rec[v]) != math.Float64bits(st.gains[v]) {
			return fmt.Errorf("vertex %d: recorded gain %v, current %v", v, ph.rec[v], st.gains[v])
		}
	}
	ref := scratchPairHists(st)
	keys := make([]uint64, 0, len(ref))
	for key := range ref {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	simple := st.opts.Pairing == PairSimple
	var empty DirHist
	for _, key := range keys {
		from, to := int32(key>>32), int32(uint32(key))
		s := ph.slot(from, to)
		if s < 0 {
			return fmt.Errorf("direction %d->%d: proposed but unallocated", from, to)
		}
		if !sameHistBits(&ph.hists[s], ref[key]) {
			return fmt.Errorf("direction %d->%d: maintained histogram differs from scratch", from, to)
		}
		rh := ref[pairKey(to, from)]
		if rh == nil {
			rh = &empty
		}
		var pa ProbTable
		if simple {
			pa, _ = MatchSimple(ref[key], rh, 0, 0)
		} else {
			pa, _ = MatchHistograms(ref[key], rh, 0, 0)
		}
		if ph.probs[s] != pa {
			return fmt.Errorf("direction %d->%d: cached probability table is stale", from, to)
		}
	}
	if live := len(ph.key) - len(ph.free); live != len(keys) {
		return fmt.Errorf("%d live direction slots, %d directions proposed", live, len(keys))
	}
	if got, want := st.objective, st.objectiveFromND(); math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("maintained objective %v != from-scratch %v", got, want)
	}
	return nil
}

// withStateCheck installs checkMaintainedState as the per-iteration check
// for the duration of fn and returns how many iterations it inspected.
func withStateCheck(t testing.TB, fn func()) int {
	t.Helper()
	return withIterCheck(t, checkMaintainedState, fn)
}

// withIterCheck installs check as the per-iteration hook for the duration
// of fn, fails t with the first error it reports, and returns how many
// iterations it inspected.
func withIterCheck(t testing.TB, check func(*directState) error, fn func()) int {
	t.Helper()
	checked := 0
	var failure error
	iterHook = func(st *directState) {
		checked++
		if failure == nil {
			if err := check(st); err != nil {
				failure = fmt.Errorf("iteration check %d: %w", checked, err)
			}
		}
	}
	defer func() { iterHook = nil }()
	fn()
	if failure != nil {
		t.Fatal(failure)
	}
	if checked == 0 {
		t.Fatal("no iteration was checked")
	}
	return checked
}

// checkFinalObjective pins the objective of the last history entry — the
// one no later iteration check sees — against a from-scratch sum over the
// result's assignment.
func checkFinalObjective(t *testing.T, st *directState, res *Result) {
	t.Helper()
	if len(res.History) == 0 {
		return
	}
	ref := newDirectState(st.g, st.opts, 0, nil, 0)
	copy(ref.bucket, res.Assignment)
	ref.buildNeighborData()
	got := res.History[len(res.History)-1].Objective
	if want := ref.objectiveFromND(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("final objective %v != from-scratch %v", got, want)
	}
}

func TestMaintainedPairingMatchesScratchCold(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"k8", Options{K: 8}},
		{"k8Simple", Options{K: 8, Pairing: PairSimple}},
		{"k8Full", Options{K: 8, NDRebuildEvery: 1}},
		{"k8Rebuild", Options{K: 8, NDRebuildEvery: 3}},
		{"k8Fanout", Options{K: 8, Objective: ObjFanout}},
		{"k8CliqueNet", Options{K: 8, Objective: ObjCliqueNet}},
		{"k200", Options{K: 200}}, // above densePairK: map-indexed slots
	}
	g := randomBipartite(t, 41, 1200, 3000, 14000)
	for _, tc := range configs {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				opts := tc.opts
				opts.Direct = true
				opts.Seed = 5
				opts.Parallelism = workers
				opts = opts.withDefaults()
				if err := opts.validate(g.NumData()); err != nil {
					t.Fatal(err)
				}
				var st *directState
				withStateCheck(t, func() {
					st = newDirectState(g, opts, 5, nil, 0)
					st.run()
				})
				res := &Result{Assignment: st.bucket, History: st.history}
				checkFinalObjective(t, st, res)
			})
		}
	}
}

func TestMaintainedPairingMatchesScratchWarm(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"k8", Options{K: 8}},
		{"k8Budget", Options{K: 8, MigrationBudget: 20}},
		{"k200", Options{K: 200}},
		{"k200Budget", Options{K: 200, MigrationBudget: 5}},
	}
	for _, tc := range configs {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				g := randomBipartite(t, 43, 1000, 2500, 11000)
				opts := tc.opts
				opts.Direct = true
				opts.Seed = 7
				opts.Parallelism = workers
				s, err := NewSession(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				c, err := gen.NewChurn(g, 0.04, 13)
				if err != nil {
					t.Fatal(err)
				}
				bound := false
				withStateCheck(t, func() {
					churnEpochs(t, s, c, 4, func(epoch int, _ partition.Assignment, res *Result) {
						checkFinalObjective(t, s.st, res)
						if opts.MigrationBudget > 0 && res.Migrated == opts.MigrationBudget {
							bound = true
						}
					})
				})
				if opts.MigrationBudget > 0 && !bound {
					t.Fatal("the migration budget never bound: the budgeted path went unexercised")
				}
			})
		}
	}
}
