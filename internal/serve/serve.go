// Package serve is the assignment serving plane: a partitioner embedded in
// a long-lived service that answers assign(vertex) lookups at high rate
// while the underlying graph churns.
//
// The paper's production setting (Section 5) separates the two roles this
// package joins: partitioning runs offline over the latest graph, and the
// serving tier consumes its output as an immutable routing table, swapped
// atomically when a new epoch lands. Here both live in one process: a
// core.Session owns the mutable graph and refinement state behind a mutex
// (Session is documented not safe for concurrent use), while lookups read a
// lock-free atomic pointer to an immutable Epoch snapshot. A repartition
// builds the next Epoch off to the side and publishes it with one pointer
// store, so readers never block, never see a half-written assignment, and
// every lookup is attributable to exactly one epoch id.
//
// The migration story is the serving plane's reason to exist: each swap
// invalidates the records that changed bucket, and in a real store each of
// those is a data copy. Options.Core.MigrationBudget caps that per-epoch
// traffic exactly (see core.Options); Epoch.Moved and Epoch.Migrated report
// it per swap.
package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"shp/internal/core"
	"shp/internal/gen"
	"shp/internal/hgio"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
	"shp/internal/sharding"
)

// Options configures a Service.
type Options struct {
	// Core configures the embedded partitioner. K is required; set
	// MigrationBudget to bound per-epoch migration traffic.
	Core core.Options
	// Model, when non-nil, replays the full query workload against every
	// new epoch through the sharding latency simulator and attaches the
	// Measurement to the Epoch — the serving-cost view of a swap. Costs one
	// pass over all hyperedges per epoch.
	Model *sharding.LatencyModel
	// ReplaySeed seeds the per-epoch replay (the epoch id is mixed in so
	// epochs draw distinct latencies). Only used with Model.
	ReplaySeed uint64
	// ReplayMinCount is the per-fanout minimum observation count for replay
	// percentile rows. Only used with Model.
	ReplayMinCount int
}

// MaxDeltaBytes caps the request body of POST /delta: a larger body is
// rejected with 413 before anything is applied.
const MaxDeltaBytes = 64 << 20

// Epoch is one immutable routing-table generation. Everything in it is
// fixed at swap time; lookups hold a pointer to the whole struct, so a
// reader's bucket, epoch id, and checksum are always mutually consistent.
type Epoch struct {
	// ID numbers epochs from 0, strictly increasing by 1 per swap.
	ID uint64
	// K is the bucket count.
	K int
	// Assignment maps each data vertex known at swap time to its bucket.
	// Immutable by contract: the service never writes it after the swap,
	// and callers must not either.
	Assignment partition.Assignment
	// Moved counts records whose bucket differs from the previous epoch
	// (vertices new in this epoch are placements, not moves, and are not
	// counted) — the data copies this swap causes downstream.
	Moved int64
	// Migrated is the engine's own budget accounting for the epoch
	// (core.Result.Migrated): it additionally charges refining a just-placed
	// new vertex off its placement spot, so Moved <= Migrated <=
	// MigrationBudget whenever a budget is set. 0 when no budget is set.
	Migrated int64
	// Fanout is the average query fanout under this epoch's assignment.
	Fanout float64
	// Checksum folds the assignment through rng.Mix; a torn or stale read
	// of Assignment cannot reproduce it. Race tests verify lookups against
	// it.
	Checksum uint64
	// SwappedAt is the wall-clock publication time (telemetry only).
	SwappedAt time.Time
	// Replay is the sharding-simulator measurement of the full workload
	// against this epoch; nil unless Options.Model is set.
	Replay *sharding.Measurement
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	// Epoch is the current epoch id; Swaps is the number of epochs
	// published (Epoch + 1).
	Epoch uint64 `json:"epoch"`
	Swaps uint64 `json:"swaps"`
	// Lookups counts Assign calls since start; LookupErrors the subset that
	// missed (vertex outside the snapshot).
	Lookups      uint64 `json:"lookups"`
	LookupErrors uint64 `json:"lookup_errors"`
	// Sampled is the number of lookups with a latency measurement (1 in 64).
	Sampled uint64 `json:"sampled"`
	// P50 and P99 are sampled lookup latencies in nanoseconds (0 until
	// enough samples exist).
	P50 int64 `json:"p50_ns"`
	P99 int64 `json:"p99_ns"`
	// MovedTotal sums Epoch.Moved over all swaps — cumulative migration
	// traffic since start.
	MovedTotal int64 `json:"moved_total"`
	// Records is the current epoch's assignment length.
	Records int `json:"records"`
}

// Service serves assignment lookups from an atomically swapped epoch
// snapshot while a core.Session maintains the graph behind it. Lookups
// (Assign, Current, Stats) are safe for any number of goroutines and never
// block on mutations; mutations (ApplyDelta, ApplyTrace, Repartition,
// ChurnEpoch) serialize on an internal mutex.
type Service struct {
	opts Options

	// mu guards session, churn generators handed to ChurnEpoch, and epoch
	// publication order. core.Session is not safe for concurrent use.
	mu      sync.Mutex
	session *core.Session

	current atomic.Pointer[Epoch]

	lookups      atomic.Uint64
	lookupErrors atomic.Uint64
	movedTotal   atomic.Int64
	swaps        atomic.Uint64
	hist         latencyHist

	// maxDeltaBytes is the POST /delta body cap (MaxDeltaBytes; tests
	// lower it).
	maxDeltaBytes int64
}

// New builds a Service over the graph and publishes epoch 0 (the first
// partition) before returning, so Assign never observes a nil epoch.
func New(g *hypergraph.Bipartite, opts Options) (*Service, error) {
	sess, err := core.NewSession(g, opts.Core)
	if err != nil {
		return nil, err
	}
	s := &Service{opts: opts, session: sess, maxDeltaBytes: MaxDeltaBytes}
	if _, err := s.Repartition(); err != nil {
		return nil, err
	}
	return s, nil
}

// sampleMask samples 1 lookup in 64 for latency measurement: cheap enough
// to leave on at full load, dense enough for stable percentiles.
const sampleMask = 63

// Assign returns the bucket serving vertex v and the epoch id the answer
// came from. Lock-free: it reads the current epoch snapshot, so a
// concurrent swap cannot tear the answer — bucket and epoch id always
// match. Vertices added to the graph after the current epoch's swap miss
// until the next repartition publishes them.
func (s *Service) Assign(v int32) (bucket int32, epoch uint64, err error) {
	n := s.lookups.Add(1)
	sampled := n&sampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now() //shp:nondet(lookup-latency telemetry only; never feeds an assignment)
	}
	ep := s.current.Load()
	if v < 0 || int(v) >= len(ep.Assignment) {
		s.lookupErrors.Add(1)
		return 0, ep.ID, fmt.Errorf("serve: vertex %d outside epoch %d snapshot (%d records)", v, ep.ID, len(ep.Assignment))
	}
	bucket = ep.Assignment[v]
	if sampled {
		s.hist.observe(time.Since(start)) //shp:nondet(lookup-latency telemetry only; never feeds an assignment)
	}
	return bucket, ep.ID, nil
}

// Current returns the live epoch snapshot. The snapshot is immutable;
// callers may hold it as long as they like.
func (s *Service) Current() *Epoch { return s.current.Load() }

// Stats snapshots the service counters. Counters are read individually, so
// a snapshot taken under load is approximate across fields but each field
// is exact.
func (s *Service) Stats() Stats {
	ep := s.current.Load()
	sampled, p50, p99 := s.hist.summary()
	return Stats{
		Epoch:        ep.ID,
		Swaps:        s.swaps.Load(),
		Lookups:      s.lookups.Load(),
		LookupErrors: s.lookupErrors.Load(),
		Sampled:      sampled,
		P50:          p50,
		P99:          p99,
		MovedTotal:   s.movedTotal.Load(),
		Records:      len(ep.Assignment),
	}
}

// ApplyDelta applies one structural delta to the graph. The change is not
// visible to lookups until the next Repartition publishes an epoch built on
// it.
func (s *Service) ApplyDelta(d *hypergraph.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session.Apply(d)
}

// ApplyTrace reads a delta trace (hgio trace format) and applies every
// batch in order, returning the number applied. The call is atomic: the
// whole chained trace is validated before batch 0 applies, so a trace with
// any bad batch returns (0, err) and leaves the graph and the published
// epoch untouched — a client may fix it and retry without double-applying.
func (s *Service) ApplyTrace(r io.Reader) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.session.Graph()
	deltas, err := hgio.ReadDeltaTrace(r, g.NumQueries(), g.NumData())
	if err != nil {
		return 0, err
	}
	if err := g.CheckChain(deltas); err != nil {
		return 0, fmt.Errorf("serve: trace rejected, nothing applied: %w", err)
	}
	for i, d := range deltas {
		if err := s.session.Apply(d); err != nil {
			return i, fmt.Errorf("serve: applying trace batch %d: %w", i, err)
		}
	}
	return len(deltas), nil
}

// Repartition runs one refinement epoch over the current graph and
// atomically publishes the result as the next Epoch. Lookups switch to it
// with no interruption: requests in flight finish on the old snapshot.
func (s *Service) Repartition() (*Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repartitionLocked()
}

func (s *Service) repartitionLocked() (*Epoch, error) {
	res, err := s.session.Repartition()
	if err != nil {
		return nil, err
	}
	prev := s.current.Load()
	ep := &Epoch{
		K:          res.K,
		Assignment: res.Assignment,
		Migrated:   res.Migrated,
		Fanout:     partition.Fanout(s.session.Graph(), res.Assignment, res.K),
		Checksum:   Checksum(res.Assignment),
		SwappedAt:  time.Now(), //shp:nondet(swap timestamp telemetry only; never feeds an assignment)
	}
	if prev != nil {
		ep.ID = prev.ID + 1
		n := len(prev.Assignment)
		if len(res.Assignment) < n {
			n = len(res.Assignment)
		}
		for i := 0; i < n; i++ {
			if prev.Assignment[i] != res.Assignment[i] {
				ep.Moved++
			}
		}
	}
	if s.opts.Model != nil {
		c, err := sharding.NewCluster(res.K, res.Assignment, *s.opts.Model)
		if err != nil {
			return nil, err
		}
		m := c.ReplayQueries(s.session.Graph(), rng.Mix(s.opts.ReplaySeed, ep.ID), s.opts.ReplayMinCount)
		ep.Replay = &m
	}
	s.current.Store(ep)
	s.swaps.Add(1)
	s.movedTotal.Add(ep.Moved)
	return ep, nil
}

// NewChurn builds a churn generator over the service's graph, for driving
// synthetic epochs through ChurnEpoch. The generator shares the service's
// graph: only use it through ChurnEpoch, which holds the service lock.
func (s *Service) NewChurn(frac float64, seed uint64) (*gen.Churn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return gen.NewChurn(s.session.Graph(), frac, seed)
}

// ChurnEpoch runs one full churn cycle — generate a delta batch, apply it,
// repartition, swap — under a single critical section, and returns the
// published epoch. This is the deterministic unit the background loop and
// the benchmarks both drive.
func (s *Service) ChurnEpoch(c *gen.Churn) (*Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := c.Next()
	if err != nil {
		return nil, err
	}
	if err := s.session.Apply(d); err != nil {
		return nil, err
	}
	return s.repartitionLocked()
}

// RunChurn drives ChurnEpoch on a fixed interval until ctx is done,
// reporting each published epoch (or terminal error) to each, which may be
// nil. Returns ctx.Err() on cancellation, or the first churn error.
func (s *Service) RunChurn(ctx context.Context, c *gen.Churn, interval time.Duration, each func(*Epoch)) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select { //shp:nondet(background churn pacing; epoch contents are pinned by the generator seed, only timing varies)
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		ep, err := s.ChurnEpoch(c)
		if err != nil {
			return err
		}
		if each != nil {
			each(ep)
		}
	}
}

// Checksum folds an assignment into a single value through rng.Mix,
// chaining so both bucket values and their order matter. Race tests verify
// a lookup-reconstructed assignment against the epoch's checksum: a torn
// read cannot reproduce it.
func Checksum(a partition.Assignment) uint64 {
	h := rng.Mix(0x5e4e, uint64(len(a)))
	for _, b := range a {
		h = rng.Mix(h, uint64(uint32(b)))
	}
	return h
}
