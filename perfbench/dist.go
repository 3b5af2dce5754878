package main

import (
	"shp/internal/distshp"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/pregel"
)

// distK is the bucket count of dist-bsp (a power of two, as distshp needs).
const distK = 16

// lateFraction selects the late iterations for pregel.late_*_bytes: those
// driven by at most 1% of the data vertices moving (the CLI's setting).
const lateFraction = 0.01

func genDist(p params, seed uint64, dir string) error {
	g, err := socialGraph(p.distUsers, seed)
	if err != nil {
		return err
	}
	return writeGraph(g, dir)
}

// runDist repeats distributed SHP-2 runs in partitionLoop, one worker per
// processor over the loopback TCP transport with the default in-memory
// checkpoint cadence. Repeats must also agree on the wire bytes.
func runDist(e *env) error {
	var first *distshp.Result
	_, a, err := e.partitionLoop(distK, "distshp.partition", func(g *hypergraph.Bipartite) (partition.Assignment, error) {
		res, err := distshp.Partition(g, distshp.Options{K: distK, Workers: e.nproc, Seed: e.seed, Transport: pregel.TCPTransport()})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		} else if res.Stats.TotalBytes != first.Stats.TotalBytes {
			e.res.fail("distributed partition: %d wire bytes, the first run's %d", res.Stats.TotalBytes, first.Stats.TotalBytes)
		}
		return res.Assignment, nil
	})
	if err != nil || !e.traced || a == nil {
		return err
	}
	e.res.set("distshp.iterations", float64(first.Iterations))
	e.res.set("distshp.alloc_mb", e.allocMB)
	setPregel(e.res, first, e.nproc, median(e.tr.durations("distshp.partition")))
	return nil
}

// setPregel reports the engine statistics of one distributed run on the
// given number of workers whose partition call took partS seconds.
func setPregel(r *results, res *distshp.Result, workers int, partS float64) {
	st := res.Stats
	r.set("pregel.supersteps", float64(st.Supersteps))
	r.set("pregel.superstep_ms", 1000*ratio(partS, float64(st.Supersteps)))
	r.set("pregel.messages", float64(st.TotalMessages))
	r.set("pregel.remote_messages", float64(st.RemoteMessages))
	r.set("wire_mb", float64(st.TotalBytes)/(1<<20))
	phases := st.PhaseTotals(4)
	for i, name := range []string{"bucket_updates", "gain_delta", "proposals", "moves"} {
		r.set("pregel.bytes."+name, float64(phases[i].BytesSent))
	}
	r.set("pregel.agg_bytes", float64(st.AggBytes))
	r.set("pregel.checkpoint_bytes", float64(st.CheckpointBytes))
	// Load skew: the busiest worker's active vertices over the mean per
	// worker, summed over supersteps (a superstep lasts as long as its
	// busiest worker).
	var busiest, mean float64
	for _, ss := range st.PerSuperstep {
		busiest += float64(ss.MaxWorkerActive)
		mean += float64(ss.ActiveVertices) / float64(workers)
	}
	r.set("pregel.worker_skew", ratio(busiest, mean))
	_, late := res.LateGainBytes(lateFraction)
	r.set("pregel.late_gain_bytes", float64(late))
	_, lateP := res.LateProposalBytes(lateFraction)
	r.set("pregel.late_proposal_bytes", float64(lateP))
}
