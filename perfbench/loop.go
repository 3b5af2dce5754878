package main

import (
	"path/filepath"
	"time"

	"shp/internal/hypergraph"
	"shp/internal/partition"
)

// partitionLoop is the closed loop of cold-shp2 and dist-bsp: read the
// hMETIS file, prune, partition (the call is traced as span), and write
// the assignment, repeated for the run's seconds. Each operation's
// read+prune is one set-up sample and its partition+write one partition_s
// sample. A traced run traces every other operation, so the untraced
// end-to-end figures and the tracing overhead come out of one run. It
// returns the last operation's graph and the first assignment.
func (e *env) partitionLoop(k int, span string, run func(g *hypergraph.Bipartite) (partition.Assignment, error)) (*hypergraph.Bipartite, partition.Assignment, error) {
	var (
		setup, part          []float64
		opUntraced, opTraced []float64
		allocMB, gcs         []float64
		first                partition.Assignment
		firstSum             uint64
		fanout               float64
		g                    *hypergraph.Bipartite
	)
	for i := 0; i < e.p.extraSetups; i++ {
		coldStart()
		t := time.Now()
		if _, err := e.loadGraph(); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	start := time.Now()
	for i := 0; i < e.p.minOps || time.Since(start) < e.seconds; i++ {
		e.tr.on = e.traced && i%2 == 1
		e.tr.nextOp()
		g = nil // let beginOp free the previous operation's graph
		e.beginOp()
		t0 := time.Now()
		var err error
		g, err = e.loadGraph()
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		var m allocMeter
		if e.tr.on {
			m.start()
		}
		sp := e.tr.begin(span)
		a, err := run(g)
		e.tr.end(sp)
		if e.tr.on {
			mb, n := m.stop()
			allocMB, gcs = append(allocMB, mb), append(gcs, n)
		}
		e.res.attempted++
		if err != nil {
			e.res.fail("partition %d: %v", i, err)
			break
		}
		if err := e.writeAssignment(a, "assignment.txt"); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		e.endOp()
		setup = append(setup, t1.Sub(t0).Seconds())
		part = append(part, t2.Sub(t1).Seconds())
		if e.tr.on {
			opTraced = append(opTraced, t2.Sub(t0).Seconds())
		} else {
			opUntraced = append(opUntraced, t2.Sub(t0).Seconds())
		}

		// Checks, outside the timed intervals.
		if err := checkAssignment(g, a, k); err != nil {
			e.res.fail("partition %d: %v", i, err)
			continue
		}
		sum := e.checksum(a)
		f := e.fanout(g, a, k)
		if first == nil {
			first, firstSum, fanout = a, sum, f
			if err := e.checkWritten(g, a, k, "assignment.txt", f); err != nil {
				e.res.fail("partition %d: %v", i, err)
			}
		} else if sum != firstSum || f != fanout {
			e.res.fail("partition %d: checksum %x fanout %v differ from the first run's %x %v", i, sum, f, firstSum, fanout)
		}
	}
	e.tr.on = false
	e.res.set("fanout", fanout)
	e.res.setMedian("setup_s", setup)
	e.res.setMedian("partition_s", part)
	if e.traced && first != nil {
		read := median(e.tr.durations("hgio.read"))
		e.res.set("hgio.read_s", read)
		e.res.set("hgio.read_mb_per_s", ratio(fileMB(filepath.Join(e.dir, graphFile)), read))
		e.res.set("hgio.write_s", median(e.tr.durations("hgio.write")))
		e.res.set("hypergraph.prune_s", median(e.tr.durations("hypergraph.prune")))
		e.res.set("hypergraph.edges", float64(g.NumEdges()))
		e.res.set("partition.fanout_s", median(e.tr.durations("partition.fanout")))
		e.res.set("partition.imbalance", partition.WeightedImbalance(g, first, k))
		e.res.set("serve.checksum_s", median(e.tr.durations("serve.checksum")))
		e.res.set("trace.overhead_pct", 100*ratio(median(opTraced)-median(opUntraced), median(opUntraced)))
		e.allocMB, e.gcCycles = median(allocMB), median(gcs)
	}
	return g, first, nil
}
