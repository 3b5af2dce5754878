package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one reported metric. The tables below are the source of
// truth for BENCHMARK.json; the self-test checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the partitioner sees. Every workload
// reports every one of them (see README.md for the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"partition_s", "s", "lower"},
	{"fanout", "buckets/query", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// coldLevels is the recursion depth of SHP-2 at k=32: one gain-work metric
// per bisection level.
const coldLevels = 5

// perLayer are the metrics of single layers, reported by the traced run. A
// layer a workload leaves idle reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"hgio.read_s", "s", "lower"},
		{"hgio.read_mb_per_s", "MiB/s", "higher"},
		{"hgio.write_s", "s", "lower"},
		{"hypergraph.prune_s", "s", "lower"},
		{"hypergraph.apply_s", "s", "lower"},
		{"hypergraph.edges", "count", "lower"},
		{"hypergraph.delta_ops", "count", "lower"},
		{"core.partition_s", "s", "lower"},
		{"core.iterations", "count", "lower"},
		{"core.frontier", "count", "lower"},
		{"core.gain_work", "count", "lower"},
		{"core.scan_work", "count", "lower"},
	}
	for l := 0; l < coldLevels; l++ {
		defs = append(defs, metricDef{fmt.Sprintf("core.gain_work.l%d", l), "count", "lower"})
	}
	return append(defs, []metricDef{
		{"core.moved_per_frontier", "ratio", "higher"},
		{"core.alloc_mb", "MiB", "lower"},
		{"core.gc_cycles", "count", "lower"},
		{"core.repartition_s", "s", "lower"},
		{"core.epoch_iterations", "count", "lower"},
		{"core.epoch_frontier", "count", "lower"},
		{"core.epoch_gain_work", "count", "lower"},
		{"core.epoch_scan_work", "count", "lower"},
		{"core.migrated_per_epoch", "count", "lower"},
		{"par.speedup", "ratio", "higher"},
		{"partition.fanout_s", "s", "lower"},
		{"partition.imbalance", "ratio", "lower"},
		{"serve.repartition_s", "s", "lower"},
		{"serve.publish_s", "s", "lower"},
		{"serve.checksum_s", "s", "lower"},
		{"serve.lookup_errors", "count", "lower"},
		{"epoch_p50_s", "s", "lower"},
		{"epoch_tail_s", "s", "lower"},
		{"epoch_tail_pct", "%", "higher"},
		{"moved_per_epoch", "count", "lower"},
		{"lookup_rate", "1/s", "higher"},
		{"lookup_p99_us", "us", "lower"},
		{"pregel.supersteps", "count", "lower"},
		{"pregel.superstep_ms", "ms", "lower"},
		{"pregel.messages", "count", "lower"},
		{"pregel.remote_messages", "count", "lower"},
		{"wire_mb", "MiB", "lower"},
		{"pregel.bytes.bucket_updates", "bytes", "lower"},
		{"pregel.bytes.gain_delta", "bytes", "lower"},
		{"pregel.bytes.proposals", "bytes", "lower"},
		{"pregel.bytes.moves", "bytes", "lower"},
		{"pregel.agg_bytes", "bytes", "lower"},
		{"pregel.checkpoint_bytes", "bytes", "lower"},
		{"pregel.worker_skew", "ratio", "lower"},
		{"pregel.late_gain_bytes", "bytes", "lower"},
		{"pregel.late_proposal_bytes", "bytes", "lower"},
		{"distshp.iterations", "count", "lower"},
		{"distshp.alloc_mb", "MiB", "lower"},
		{"hgio.self_s", "s", "lower"},
		{"hypergraph.self_s", "s", "lower"},
		{"core.self_s", "s", "lower"},
		{"partition.self_s", "s", "lower"},
		{"serve.self_s", "s", "lower"},
		{"distshp.self_s", "s", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.spans", "count", "lower"},
	}...)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects a run's metrics and its correctness accounting.
type results struct {
	values    map[string]float64
	samples   map[string][]float64 // the samples behind a median, for the report
	attempted int64
	failed    int64
	problems  []string
}

func newResults() *results {
	return &results{values: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *results) set(name string, v float64) { r.values[name] = v }

// setMedian reports the median of xs and keeps the samples for the report.
func (r *results) setMedian(name string, xs []float64) {
	r.values[name] = median(xs)
	r.samples[name] = xs
}

// fail records one failed operation with a description; the first few are
// printed to stderr.
func (r *results) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// print writes the metrics of defs to stderr under a title.
func (r *results) print(title string, defs []metricDef) {
	fmt.Fprintf(os.Stderr, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-30s %16.6g %s", d.Name, r.values[d.Name], d.Unit)
		if xs := r.samples[d.Name]; len(xs) > 0 {
			s := sortedCopy(xs)
			fmt.Fprintf(os.Stderr, "  (median of %d; min %.4g, max %.4g)", len(s), s[0], s[len(s)-1])
		}
		fmt.Fprintln(os.Stderr)
	}
}

// emit prints the correctness accounting to stderr, then the result object
// with every metric of defs as the last line of stdout. A metric the
// workload did not set reports 0.
func (r *results) emit(workload string, defs []metricDef) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(os.Stderr, "%s: %d operations attempted, %d failed\n", workload, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// ratio divides, giving 0 for a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
