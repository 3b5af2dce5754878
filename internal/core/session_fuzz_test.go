package core

import "testing"

// FuzzSessionStateMachine drives a Session through random interleavings of
// Apply (hyperedges added and removed, data vertices added, data weights
// set) and Repartition, on a small random graph with a fuzzed K, worker
// count, initial strategy and MigrationBudget (none, frozen, or a small cap;
// a session's budget is fixed at construction). Every refinement iteration
// runs under checkMaintainedState, which compares the maintained engine
// state with a from-scratch rebuild. After every Repartition the graph must
// Validate, the assignment must be a valid K-way assignment covering every
// vertex, and Result.Migrated must respect the budget. The ε-balance bound
// of warm epochs is not asserted: it is not met exactly yet.
//
// Input layout: four header bytes (K, budget, workers and strategy, graph
// seed), then one op per byte, with operands read from the bytes after it.
func FuzzSessionStateMachine(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 0, 7, 9, 3, 1, 4, 4, 2, 5, 3, 8, 2, 4, 5})
	f.Add([]byte{3, 1, 5, 2, 1, 20, 4, 4, 5, 3, 1, 2, 9, 5, 0, 3, 1, 8, 4, 5})
	f.Add([]byte{7, 9, 2, 3, 0, 11, 12, 13, 2, 0, 30, 31, 4, 5, 5, 1, 6, 4, 5})
	f.Add([]byte{1, 2, 1, 0, 2, 2, 3, 9, 2, 1, 4, 3, 7, 1, 4, 5, 0, 4, 9, 9, 4, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		opts := Options{K: 2 + next()%7, Seed: 3}
		switch b := next() % 16; b {
		case 0:
		case 1:
			opts.MigrationBudget = MigrationFrozen
		default:
			opts.MigrationBudget = int64(b)
		}
		mode := next()
		opts.Parallelism = 1 + mode%3
		opts.Direct = mode&4 != 0 // else the initial partition is recursive
		seed := uint64(next())
		g := randomBipartite(t, seed, 20+int(seed%13), 30+int(seed%17), 150)

		// K >= 2 and |D| >= 30, so every Repartition runs at least one
		// checked iteration.
		withStateCheck(t, func() {
			s, err := NewSession(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			d := s.NewDelta()
			pending := func() int { return s.Graph().NumData() + d.NewData() }
			for len(in) > 0 {
				switch next() % 6 {
				case 0: // add a hyperedge over 1–4 existing or pending vertices
					members := make([]int32, 1+next()%4)
					for i := range members {
						members[i] = int32(next() % pending())
					}
					d.AddWeightedHyperedge(int32(1+next()%3), members...)
				case 1: // remove a hyperedge (possibly one already removed)
					d.RemoveHyperedge(int32(next() % s.Graph().NumQueries()))
				case 2:
					d.AddData(int32(1 + next()%3))
				case 3:
					d.SetDataWeight(int32(next()%pending()), int32(1+next()%4))
				case 4:
					if err := s.Apply(d); err != nil {
						t.Fatalf("valid delta rejected: %v", err)
					}
					d = s.NewDelta()
				case 5:
					checkedRepartition(t, s, opts)
				}
			}
			if err := s.Apply(d); err != nil {
				t.Fatalf("valid delta rejected: %v", err)
			}
			checkedRepartition(t, s, opts)
		})
	})
}

// checkedRepartition runs one session epoch and checks the contracts that
// must hold after every Repartition.
func checkedRepartition(t *testing.T, s *Session, opts Options) {
	t.Helper()
	res, err := s.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != s.Graph().NumData() {
		t.Fatalf("assignment covers %d of %d data vertices", len(res.Assignment), s.Graph().NumData())
	}
	if err := res.Assignment.Validate(opts.K); err != nil {
		t.Fatal(err)
	}
	if err := s.Assignment().Validate(opts.K); err != nil {
		t.Fatal(err)
	}
	budget := opts.MigrationBudget
	if budget < 0 {
		budget = 0
	}
	if opts.MigrationBudget != 0 && res.Migrated > budget {
		t.Fatalf("epoch migrated %d records, budget %d", res.Migrated, budget)
	}
}
