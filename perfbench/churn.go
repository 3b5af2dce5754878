package main

import (
	"bufio"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shp/internal/core"
	"shp/internal/gen"
	"shp/internal/hgio"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/serve"
)

const (
	traceFile = "churn.trace"
	// churnFraction of the live hyperedges is replaced in every epoch.
	churnFraction = 0.01
	// migrationBudget caps the records an epoch may move; at 1% churn on
	// 20000 users the cap binds on some epochs.
	migrationBudget = 64
)

// genChurn writes the graph and a chained 1%-churn delta trace generated
// against a pruned clone of it, the graph the service will hold.
func genChurn(p params, seed uint64, dir string) error {
	g, err := socialGraph(p.churnUsers, seed)
	if err != nil {
		return err
	}
	if err := writeGraph(g, dir); err != nil {
		return err
	}
	clone := hypergraph.PruneTrivialQueries(g, 2).Clone()
	c, err := gen.NewChurn(clone, churnFraction, seed^0xc4a7)
	if err != nil {
		return err
	}
	deltas, err := c.Batches(p.epochsPerRound)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, traceFile), func(w *bufio.Writer) error { return hgio.WriteDeltaTrace(w, deltas) })
}

// lookupSample is one verified lookup: the bucket the service answered for
// vertex v and the epoch the answer came from.
type lookupSample struct {
	v, bucket int32
	epoch     uint64
}

// latencyBins bounds the lookup latency histogram: one bin per nanosecond,
// the last holding everything slower.
const latencyBins = 1 << 16

// sampleEvery is the fraction of lookups kept for verification.
const sampleEvery = 256

// lookupClient is one closed-loop reader: it calls Assign on uniformly
// drawn vertices of the current epoch until stop closes, timing each call.
type lookupClient struct {
	lookups int64
	errors  int64
	hist    [latencyBins]uint32
	samples []lookupSample
}

func (c *lookupClient) run(svc *serve.Service, seed uint64, stop <-chan struct{}) {
	r := rand.New(rand.NewPCG(seed, 0x100c))
	n := len(svc.Current().Assignment)
	for i := 0; ; i++ {
		if i&1023 == 0 {
			select {
			case <-stop:
				return
			default:
			}
			n = len(svc.Current().Assignment)
		}
		v := int32(r.IntN(n))
		t := time.Now()
		b, ep, err := svc.Assign(v)
		d := time.Since(t)
		c.lookups++
		if err != nil {
			c.errors++
			continue
		}
		if d >= latencyBins {
			d = latencyBins - 1
		}
		c.hist[d]++
		if i%sampleEvery == 0 {
			c.samples = append(c.samples, lookupSample{v, b, ep})
		}
	}
}

// quantileUS returns the p-th percentile latency of the histogram in µs.
func (c *lookupClient) quantileUS(p float64) float64 {
	var total uint64
	for _, n := range c.hist {
		total += uint64(n)
	}
	rank := uint64(p / 100 * float64(total))
	var seen uint64
	for ns, n := range c.hist {
		seen += uint64(n)
		if seen > rank {
			return float64(ns) / 1000
		}
	}
	return 0
}

// setupService reads the graph and the delta trace and builds the service,
// which publishes epoch 0 (the initial SHP-2 partition) before returning.
// The service owns the returned graph and mutates it on ApplyDelta.
func (e *env) setupService(opts serve.Options) (*serve.Service, *hypergraph.Bipartite, []*hypergraph.Delta, error) {
	g, err := e.loadGraph()
	if err != nil {
		return nil, nil, nil, err
	}
	deltas, err := e.readTrace(g)
	if err != nil {
		return nil, nil, nil, err
	}
	sp := e.tr.begin("serve.new")
	svc, err := serve.New(g, opts)
	e.tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	return svc, g, deltas, nil
}

func (e *env) readTrace(g *hypergraph.Bipartite) ([]*hypergraph.Delta, error) {
	sp := e.tr.begin("hgio.read_trace")
	defer e.tr.end(sp)
	f, err := os.Open(filepath.Join(e.dir, traceFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hgio.ReadDeltaTrace(bufio.NewReader(f), g.NumQueries(), g.NumData())
}

// runChurn replays the pre-generated churn trace through a serving
// service in rounds. Each round sets up a fresh service (one set-up
// sample) and then, in a closed loop, applies each delta and repartitions,
// starting an epoch only once the previous one is published, while one
// closed-loop client looks up assignments. Every round replays the same
// epochs, so per-epoch figures are comparable across rounds and runs.
// A traced run traces every other epoch, and the set-up and checks, then
// replays the same deltas through a bare core.Session for the core
// layer's share.
func runChurn(e *env) error {
	refiners := e.nproc - 1 // the lookup client takes one processor
	if refiners < 1 {
		refiners = 1
	}
	opts := serve.Options{Core: core.Options{K: coldK, Parallelism: refiners, MigrationBudget: migrationBudget, Seed: e.seed}}

	var setup []float64
	for i := 0; i < e.p.extraSetups; i++ {
		coldStart()
		t := time.Now()
		if _, _, _, err := e.setupService(opts); err != nil { // set-up samples only
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}

	var (
		epochUntraced, epochTraced []float64
		moved                      []float64
		lookupTime                 time.Duration
		client                     lookupClient
		lastEpochs                 []*serve.Epoch
		finalSum                   uint64
		fanout, imbalance          float64
		deltaOps                   int
		edges                      int64
	)
	start := time.Now()
	for round := 0; round < e.p.minRounds || time.Since(start) < e.seconds; round++ {
		e.tr.on = e.traced
		e.beginOp()
		t := time.Now()
		svc, g, deltas, err := e.setupService(opts)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
		initial := g.Clone() // g changes with every ApplyDelta
		epochs := []*serve.Epoch{svc.Current()}

		client.samples = client.samples[:0]
		lookupsBefore, errorsBefore := client.lookups, client.errors
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			client.run(svc, e.seed+uint64(round), stop)
		}()
		loopStart := time.Now()
		for i, d := range deltas {
			e.tr.on = e.traced && i%2 == 1
			e.tr.nextOp()
			t0 := time.Now()
			sp := e.tr.begin("serve.apply")
			err := svc.ApplyDelta(d)
			e.tr.end(sp)
			var ep *serve.Epoch
			if err == nil {
				sp = e.tr.begin("serve.repartition")
				ep, err = svc.Repartition()
				e.tr.end(sp)
			}
			el := time.Since(t0).Seconds()
			e.res.attempted++
			if err != nil {
				e.res.fail("round %d epoch %d: %v", round, i+1, err)
				break
			}
			if e.tr.on {
				epochTraced = append(epochTraced, el)
			} else {
				epochUntraced = append(epochUntraced, el)
			}
			epochs = append(epochs, ep)
		}
		close(stop)
		wg.Wait()
		e.endOp()
		e.tr.on = e.traced
		lookupTime += time.Since(loopStart)
		e.res.attempted += client.lookups - lookupsBefore
		if n := client.errors - errorsBefore; n > 0 {
			e.res.fail("round %d: %d lookups returned an error", round, n)
			e.res.failed += n - 1
		}

		last := epochs[len(epochs)-1]
		if err := e.writeAssignment(last.Assignment, "assignment.txt"); err != nil {
			return err
		}

		// Checks, after the round's timed loop.
		e.checkEpochs(round, initial, deltas, epochs)
		for _, s := range client.samples {
			if s.epoch >= uint64(len(epochs)) || epochs[s.epoch].Assignment[s.v] != s.bucket {
				e.res.fail("round %d: lookup of %d answered %d from epoch %d, which does not hold it", round, s.v, s.bucket, s.epoch)
			}
		}
		cs := e.checksum(last.Assignment)
		if round == 0 {
			finalSum = cs
			fanout = last.Fanout
			imbalance = partition.WeightedImbalance(g, last.Assignment, coldK)
			if err := e.checkWritten(g, last.Assignment, coldK, "assignment.txt", last.Fanout); err != nil {
				e.res.fail("round %d: %v", round, err)
			}
			for _, ep := range epochs[1:] {
				moved = append(moved, float64(ep.Moved))
			}
			for _, d := range deltas {
				deltaOps += len(d.Ops)
			}
			edges = initial.NumEdges()
		} else if cs != finalSum {
			e.res.fail("round %d: final checksum %x differs from round 0's %x", round, cs, finalSum)
		}
		lastEpochs = epochs
	}
	e.tr.on = false
	e.res.setMedian("setup_s", setup)
	e.res.setMedian("partition_s", epochUntraced)
	e.res.set("fanout", fanout)
	if !e.traced {
		return nil
	}

	epochs := append(append([]float64{}, epochUntraced...), epochTraced...)
	pct, tail := tailPercentile(epochs)
	e.res.set("epoch_p50_s", median(epochs))
	e.res.set("epoch_tail_s", tail)
	e.res.set("epoch_tail_pct", pct)
	e.res.set("moved_per_epoch", ratio(sum(moved), float64(len(moved))))
	e.res.set("lookup_rate", ratio(float64(client.lookups), lookupTime.Seconds()))
	e.res.set("lookup_p99_us", client.quantileUS(99))
	e.res.set("serve.lookup_errors", float64(client.errors))
	e.res.set("partition.imbalance", imbalance)
	e.res.set("hypergraph.edges", float64(edges))
	e.res.set("hypergraph.delta_ops", float64(deltaOps))
	e.res.set("trace.overhead_pct", 100*ratio(median(epochTraced)-median(epochUntraced), median(epochUntraced)))
	read := median(e.tr.durations("hgio.read"))
	if err := e.replaySession(opts.Core, lastEpochs); err != nil {
		return err
	}
	e.res.set("hgio.read_s", read)
	e.res.set("hgio.read_mb_per_s", ratio(fileMB(filepath.Join(e.dir, graphFile)), read))
	e.res.set("hgio.write_s", median(e.tr.durations("hgio.write")))
	e.res.set("hypergraph.prune_s", median(e.tr.durations("hypergraph.prune")))
	e.res.set("hypergraph.apply_s", median(e.tr.durations("hypergraph.apply")))
	e.res.set("partition.fanout_s", median(e.tr.durations("partition.fanout")))
	e.res.set("serve.checksum_s", median(e.tr.durations("serve.checksum")))
	serveRep := median(e.tr.durations("serve.repartition"))
	e.res.set("serve.repartition_s", serveRep)
	e.res.set("serve.publish_s", serveRep-e.res.values["core.repartition_s"])
	return nil
}

// checkEpochs verifies every epoch of a round: the migration budget
// (Moved <= Migrated <= budget), the checksum against the assignment, the
// assignment's shape, and the reported fanout against partition.Fanout on
// the graph as it stood at that epoch, rebuilt by replaying the deltas on
// a copy of the starting graph.
func (e *env) checkEpochs(round int, initial *hypergraph.Bipartite, deltas []*hypergraph.Delta, epochs []*serve.Epoch) {
	g := initial.Clone()
	for i, ep := range epochs {
		if i > 0 {
			sp := e.tr.begin("hypergraph.apply")
			err := g.ApplyDelta(deltas[i-1])
			e.tr.end(sp)
			if err != nil {
				e.res.fail("round %d epoch %d: replaying the delta: %v", round, i, err)
				return
			}
		}
		if ep.ID != uint64(i) {
			e.res.fail("round %d epoch %d: published as epoch %d", round, i, ep.ID)
		}
		if i > 0 && (ep.Moved > ep.Migrated || ep.Migrated > migrationBudget) {
			e.res.fail("round %d epoch %d: moved %d, migrated %d, budget %d", round, i, ep.Moved, ep.Migrated, migrationBudget)
		}
		if err := checkAssignment(g, ep.Assignment, coldK); err != nil {
			e.res.fail("round %d epoch %d: %v", round, i, err)
			continue
		}
		if sum := e.checksum(ep.Assignment); sum != ep.Checksum {
			e.res.fail("round %d epoch %d: checksum %x, epoch reports %x", round, i, sum, ep.Checksum)
		}
		if f := e.fanout(g, ep.Assignment, coldK); f != ep.Fanout {
			e.res.fail("round %d epoch %d: fanout %v, epoch reports %v", round, i, f, ep.Fanout)
		}
	}
}

// replaySession replays the trace through a bare core.Session with the
// service's options: the core layer's share of an epoch without the
// serving plane around it. Its assignments must match the service's.
func (e *env) replaySession(opts core.Options, epochs []*serve.Epoch) error {
	e.tr.on = true
	defer func() { e.tr.on = false }()
	g, err := e.loadGraph()
	if err != nil {
		return err
	}
	deltas, err := e.readTrace(g)
	if err != nil {
		return err
	}
	e.tr.nextOp()
	sp := e.tr.begin("core.partition")
	sess, err := core.NewSession(g, opts)
	e.tr.end(sp)
	e.res.attempted++
	if err != nil {
		e.res.fail("bare session: %v", err)
		return nil
	}
	setCoreWork(e.res, sess.Result())
	e.res.set("core.partition_s", median(e.tr.durations("core.partition")))
	// serve.New publishes epoch 0 through one Repartition, which builds the
	// warm engine; mirror it so epoch i here is epoch i of the service.
	sp = e.tr.begin("core.warm_start")
	res, err := sess.Repartition()
	e.tr.end(sp)
	e.res.attempted++
	if err != nil {
		e.res.fail("bare session warm start: %v", err)
		return nil
	}
	if len(epochs) > 0 && serve.Checksum(res.Assignment) != epochs[0].Checksum {
		e.res.fail("bare session epoch 0: assignment differs from the service's")
	}
	var (
		rep, allocMB, gcs          []float64
		iters, frontier, gain, scn float64
		migrated                   float64
	)
	for i, d := range deltas {
		e.tr.nextOp()
		sp := e.tr.begin("core.apply")
		err := sess.Apply(d)
		e.tr.end(sp)
		var m allocMeter
		m.start()
		var res *core.Result
		if err == nil {
			sp = e.tr.begin("core.repartition")
			res, err = sess.Repartition()
			rep = append(rep, e.tr.end(sp).Seconds())
		}
		mb, n := m.stop()
		allocMB, gcs = append(allocMB, mb), append(gcs, n)
		e.res.attempted++
		if err != nil {
			e.res.fail("bare session epoch %d: %v", i+1, err)
			return nil
		}
		iters += float64(res.Iterations)
		for _, w := range res.Work {
			frontier += float64(w.Frontier)
			gain += float64(w.GainWork)
			scn += float64(w.ScanWork)
		}
		migrated += float64(res.Migrated)
		if i+1 < len(epochs) && serve.Checksum(res.Assignment) != epochs[i+1].Checksum {
			e.res.fail("bare session epoch %d: assignment differs from the service's", i+1)
		}
	}
	n := float64(len(deltas))
	e.res.set("core.repartition_s", median(rep))
	e.res.set("core.epoch_iterations", ratio(iters, n))
	e.res.set("core.epoch_frontier", ratio(frontier, n))
	e.res.set("core.epoch_gain_work", ratio(gain, n))
	e.res.set("core.epoch_scan_work", ratio(scn, n))
	e.res.set("core.migrated_per_epoch", ratio(migrated, n))
	e.res.set("core.alloc_mb", median(allocMB))
	e.res.set("core.gc_cycles", median(gcs))
	return nil
}
