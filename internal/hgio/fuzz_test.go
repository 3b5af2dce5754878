package hgio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"shp/internal/hypergraph"
)

// FuzzReadHMetis checks the parser never panics and that anything it
// accepts round-trips through WriteHMetis.
func FuzzReadHMetis(f *testing.F) {
	f.Add("3 6\n1 2 6\n1 2 3 4\n4 5 6\n")
	f.Add("2 3 1\n9 1 2\n4 2 3\n")
	f.Add("2 3 10\n1 2\n2 3\n5\n6\n7\n")
	f.Add("1 2 11\n5 1 2\n2\n3\n")
	f.Add("% comment\n1 1\n1\n")
	f.Add("")
	f.Add("0 0\n")
	f.Add("1 1\n\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadHMetis(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteHMetis(&buf, g); err != nil {
			t.Fatalf("cannot re-serialize accepted graph: %v", err)
		}
		g2, err := ReadHMetis(&buf)
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v\noutput:\n%s", err, buf.String())
		}
		if g2.NumQueries() != g.NumQueries() || g2.NumData() != g.NumData() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d,%d) -> (%d,%d,%d)",
				g.NumQueries(), g.NumData(), g.NumEdges(),
				g2.NumQueries(), g2.NumData(), g2.NumEdges())
		}
	})
}

// FuzzReadEdgeList checks the edge-list parser never panics and accepted
// inputs round-trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 0\n1 2\n")
	f.Add("%% q=10 d=20\n0 0\n")
	f.Add("# comment\n\n0 1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed edge count")
		}
	})
}

// FuzzReadAssignment checks the assignment parser never panics.
func FuzzReadAssignment(f *testing.F) {
	f.Add("1\n2\n3\n")
	f.Add("# c\n\n-1\n")
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ReadAssignment(strings.NewReader(input))
	})
}

// FuzzReadDeltaTrace checks the delta-trace parser — also the body format
// of shpserve's POST /delta — never panics on hostile input, that every
// trace it accepts round-trips through WriteDeltaTrace, and that applying
// the accepted batches to a graph either succeeds with a valid graph or
// fails with an error, never a panic.
func FuzzReadDeltaTrace(f *testing.F) {
	f.Add("addq 1 0 1\ncommit\n")
	f.Add("# churn\naddd 2\naddq 3 0 3\nrmq 1\ncommit\nsetw 2 5\ncommit\n")
	f.Add("addq 0 0 0 2\nrmq 0\n")
	f.Add("addq 1 -1\ncommit\n")
	f.Add("rmq 99\ncommit\ncommit\n")
	f.Add("setw 0 0\naddd -4\n")
	f.Add("addq 2147483648 1\n")
	f.Add("commit 1\nbogus\n")
	f.Add("")
	const baseQ, baseD = 2, 3
	f.Fuzz(func(t *testing.T, input string) {
		deltas, err := ReadDeltaTrace(strings.NewReader(input), baseQ, baseD)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDeltaTrace(&buf, deltas); err != nil {
			t.Fatalf("cannot serialize accepted trace: %v", err)
		}
		again, err := ReadDeltaTrace(&buf, baseQ, baseD)
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v\noutput:\n%s", err, buf.String())
		}
		if len(again) != len(deltas) {
			t.Fatalf("round trip changed batch count: %d -> %d", len(deltas), len(again))
		}
		for i, d := range deltas {
			e := again[i]
			if d.BaseQueries != e.BaseQueries || d.BaseData != e.BaseData || len(d.Ops) != len(e.Ops) {
				t.Fatalf("batch %d: round trip changed shape", i)
			}
			for j, op := range d.Ops {
				if op.Kind == hypergraph.OpAddHyperedge && op.Weight == 0 {
					op.Weight = 1 // the documented "0 means 1"; the writer spells it out
				}
				if !reflect.DeepEqual(op, e.Ops[j]) {
					t.Fatalf("batch %d op %d: round trip changed %+v into %+v", i, j, op, e.Ops[j])
				}
			}
		}
		g, err := ReadHMetis(strings.NewReader("2 3\n1 2\n2 3\n"))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			if err := g.ApplyDelta(d); err != nil {
				return
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("applied batch leaves an invalid graph: %v", err)
			}
		}
	})
}
