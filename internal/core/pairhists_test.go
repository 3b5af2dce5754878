package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"shp/internal/gen"
	"shp/internal/partition"
)

// The maintained SHP-k master state must be invisible: after every
// iteration's pairing step, the per-direction histograms kept alive across
// iterations and epochs must equal a from-scratch accumulation of every
// vertex's current proposal, every cached probability table must equal a
// fresh match of the from-scratch histograms, and the maintained objective
// must equal objectiveFromND — all bit for bit. Gains here are on the
// dyadic grid (default P), the regime where maintained sums are exact.

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

// checkMaintainedState compares st's maintained pairing state and objective
// against from-scratch references.
func checkMaintainedState(st *directState) error {
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

// withStateCheck installs the per-iteration check for the duration of fn
// and returns how many iterations it inspected.
func withStateCheck(t *testing.T, fn func()) int {
	t.Helper()
	checked := 0
	var failure error
	iterHook = func(st *directState) {
		checked++
		if failure == nil {
			if err := checkMaintainedState(st); err != nil {
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
		{"k8Full", Options{K: 8, DisableIncremental: true}},
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
