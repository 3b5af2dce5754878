package main

import (
	"fmt"
	"time"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/serve"
)

// coldK is the bucket count of cold-shp2 and of churn-serve.
const coldK = 32

func genCold(p params, seed uint64, dir string) error {
	g, err := socialGraph(p.coldUsers, seed)
	if err != nil {
		return err
	}
	return writeGraph(g, dir)
}

// runCold repeats cold SHP-2 runs (default options, k=32, one worker per
// processor) in partitionLoop. A traced run then partitions at
// Parallelism=1 for par.speedup.
func runCold(e *env) error {
	var first *core.Result
	g, a, err := e.partitionLoop(coldK, "core.partition", func(g *hypergraph.Bipartite) (partition.Assignment, error) {
		res, err := core.Partition(g, core.Options{K: coldK, Parallelism: e.nproc, Seed: e.seed})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
		return res.Assignment, nil
	})
	if err != nil || !e.traced || a == nil {
		return err
	}

	// Parallelism=1 baseline for par.speedup; determinism requires the
	// same assignment as the parallel runs.
	want := serve.Checksum(a)
	var p1 []float64
	for i := 0; i < e.p.parBaselines; i++ {
		t := time.Now()
		res, err := core.Partition(g, core.Options{K: coldK, Parallelism: 1, Seed: e.seed})
		p1 = append(p1, time.Since(t).Seconds())
		e.res.attempted++
		if err != nil {
			e.res.fail("cold Parallelism=1 partition: %v", err)
			continue
		}
		if sum := serve.Checksum(res.Assignment); sum != want {
			e.res.fail("cold Parallelism=1 checksum %x differs from Parallelism=%d's %x", sum, e.nproc, want)
		}
	}
	corePart := median(e.tr.durations("core.partition"))
	e.res.set("core.partition_s", corePart)
	setCoreWork(e.res, first)
	e.res.set("core.alloc_mb", e.allocMB)
	e.res.set("core.gc_cycles", e.gcCycles)
	e.res.set("par.speedup", ratio(median(p1), corePart))
	return nil
}

// setCoreWork reports the work counters of one partitioning result.
func setCoreWork(r *results, res *core.Result) {
	var frontier, gain, scan, moved float64
	levels := make([]float64, coldLevels)
	for _, w := range res.Work {
		frontier += float64(w.Frontier)
		gain += float64(w.GainWork)
		scan += float64(w.ScanWork)
		if w.Level < coldLevels {
			levels[w.Level] += float64(w.GainWork)
		}
	}
	for _, h := range res.History {
		moved += float64(h.Moved)
	}
	r.set("core.iterations", float64(res.Iterations))
	r.set("core.frontier", frontier)
	r.set("core.gain_work", gain)
	r.set("core.scan_work", scan)
	for l, v := range levels {
		r.set(fmt.Sprintf("core.gain_work.l%d", l), v)
	}
	r.set("core.moved_per_frontier", ratio(moved, frontier))
}
