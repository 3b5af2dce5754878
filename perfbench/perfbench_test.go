package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallParams runs every workload's code on inputs small enough for a test.
var smallParams = params{
	coldUsers:      3000,
	churnUsers:     2000,
	distUsers:      2000,
	epochsPerRound: 12,
	minRounds:      2,
	minOps:         2,
	extraSetups:    1,
	parBaselines:   1,
}

// deterministic reports whether a metric is a count or a quality value
// that must repeat exactly for one seed: fanout, migration, wire bytes,
// work counters and engine counts. Times, rates, memory and the spans'
// own figures may vary.
func deterministic(name string) bool {
	switch name {
	case "fanout", "moved_per_epoch", "wire_mb", "partition.imbalance",
		"hypergraph.edges", "hypergraph.delta_ops", "distshp.iterations":
		return true
	}
	if strings.HasPrefix(name, "core.") {
		return !strings.HasSuffix(name, "_s") && name != "core.alloc_mb" && name != "core.gc_cycles"
	}
	if strings.HasPrefix(name, "pregel.") {
		return name != "pregel.superstep_ms"
	}
	return false
}

// TestWorkloadsRepeatExactly runs each workload twice on one seed and
// requires zero failed operations and identical deterministic metrics.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := w.gen(smallParams, 7, dir); err != nil {
				t.Fatal(err)
			}
			var runs [2]*results
			for i := range runs {
				res, _, err := measure(w, smallParams, 7, dir, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, res.failed, res.attempted, res.problems)
				}
				runs[i] = res
			}
			checked := 0
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if !deterministic(d.Name) {
					continue
				}
				a, b := runs[0].values[d.Name], runs[1].values[d.Name]
				if a != b {
					t.Errorf("%s: %v then %v", d.Name, a, b)
				}
				if a != 0 {
					checked++
				}
			}
			if runs[0].values["fanout"] <= 1 {
				t.Errorf("fanout %v, want > 1", runs[0].values["fanout"])
			}
			t.Logf("%d deterministic metrics repeat exactly", checked)
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the program %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, v := tailPercentile(xs); p != 95 || v != 189 {
		t.Errorf("200 samples: p%v = %v, want p95 = 189", p, v)
	}
	if p, _ := tailPercentile(xs[:150]); p != 90 {
		t.Errorf("150 samples: p%v, want p90", p)
	}
	if p, _ := tailPercentile(xs[:5]); p != 50 {
		t.Errorf("5 samples: p%v, want p50", p)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.on = true
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "serve.repartition", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.refine", Start: 10, End: 70},
		{ID: 2, Parent: 0, Name: "partition.fanout", Start: 70, End: 90},
	}
	self := tr.selfTimes()
	if self["serve"] != 20 || self["core"] != 60 || self["partition"] != 20 {
		t.Errorf("self times %v, want serve 20, core 60, partition 20", self)
	}
}
