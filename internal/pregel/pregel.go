// Package pregel implements a vertex-centric bulk-synchronous-parallel (BSP)
// computation engine in the style of Pregel/Giraph, the substrate the paper's
// distributed implementation runs on (Section 3.2).
//
// The engine plays the role of a Giraph cluster: vertices are hash-sharded
// across a configurable number of workers (the "machines"), a superstep runs
// every active vertex's compute function against the messages delivered to
// it, outgoing messages are buffered per destination worker and exchanged at
// the synchronization barrier, and aggregators are merged by a master that
// may run its own compute between supersteps.
//
// The message plane is layered:
//
//   - engine.go runs supersteps and delivers per-vertex message runs;
//   - codec.go turns typed messages into flat, length-prefixed bytes (and
//     makes byte accounting measured rather than estimated);
//   - transport.go moves batches between workers — in-process by default, or
//     over loopback TCP sockets with real framing and serialization.
//
// Vertex ids are dense: an engine over N vertices requires ids exactly
// 0..N-1 (NewEngine rejects anything else). The hot path leans on that
// contract instead of hash maps. Vertices live in an id-indexed slice, a
// worker's sender-side combiner finds the pending envelope for a
// destination through an id-indexed slot array, and a receiving worker
// groups its inbox into per-vertex runs with a stable counting sort on
// local vertex positions, in O(messages + vertices). Sharding stays a hash
// of the id, so dense ids spread evenly across workers.
//
// Options.Combiner is applied sender-side, in the per-destination outbox, so
// it reduces the message and byte counts that actually cross the transport
// (and a receiver-side pass folds across source workers). A combiner may
// fold in place: messages belong to the engine once sent, so a combiner may
// mutate and return its first argument, and pointer message types then
// combine without allocating. Message and byte counts are tracked per
// superstep, distinguishing intra-worker from cross-worker traffic, so
// communication-complexity claims can be measured rather than asserted.
package pregel

import (
	"fmt"
	"time"
)

// VertexID identifies a vertex. The ids of an engine's N vertices must be
// exactly 0..N-1 (in any order); the engine indexes its per-vertex arrays
// by id.
type VertexID int64

// Message is the unit of communication between vertices.
type Message interface{}

// VertexState is per-vertex user state.
type VertexState interface{}

// Vertex is one vertex's engine-side record.
type Vertex struct {
	ID     VertexID
	State  VertexState
	halted bool
}

// Context is handed to compute functions to interact with the engine.
type Context struct {
	engine    *Engine
	worker    *worker
	superstep int
	vertex    *Vertex
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// NumVertices returns the total vertex count.
func (c *Context) NumVertices() int { return len(c.engine.vertices) }

// Send delivers a message to dst at the start of the next superstep. With a
// combiner configured, messages for the same destination vertex are folded
// in the outbox immediately, so at most one envelope per (source worker,
// destination vertex) pair reaches the transport.
//
// A sent message belongs to the engine: the combiner may mutate it in
// place, so a sender must never send one pointer twice or touch a message
// after sending it. A Send to an id outside [0, NumVertices()) is dropped
// here, at the sender: it is never buffered, counted in Stats, or shipped.
func (c *Context) Send(dst VertexID, m Message) {
	e, w := c.engine, c.worker
	if uint64(dst) >= uint64(len(e.vertices)) {
		return
	}
	if comb := e.opts.Combiner; comb != nil {
		if i := w.slot[dst]; i != 0 {
			ob := w.out[e.workerOf(dst)]
			ob[i-1].msg = comb(ob[i-1].msg, m)
			return
		}
	}
	d := e.workerOf(dst)
	if w.slot != nil {
		w.slot[dst] = int32(len(w.out[d]) + 1)
	}
	w.out[d] = append(w.out[d], envelope{dst: dst, msg: m})
}

// Aggregate folds a value into the named aggregator; the master sees the
// merged value after the superstep and vertices can read the previous
// superstep's merged value with ReadAggregator.
//
// An unknown aggregator name or a type-mismatched value panics with an
// *AggregatorError; the engine recovers it into a *ComputeError surfaced
// through Run, so a misconfigured computation fails the superstep cleanly
// instead of crashing a worker goroutine.
func (c *Context) Aggregate(name string, value interface{}) {
	agg, ok := c.worker.aggregators[name]
	if !ok {
		def, exists := c.engine.opts.Aggregators[name]
		if !exists {
			panic(&AggregatorError{Name: name, Reason: "unknown aggregator"})
		}
		agg = def.New()
		c.worker.aggregators[name] = agg
	}
	agg.Add(value)
}

// ReadAggregator returns the value the named aggregator held at the end of
// the previous superstep (nil in superstep 0 or if never aggregated).
func (c *Context) ReadAggregator(name string) interface{} {
	return c.engine.aggregated[name]
}

// VoteToHalt deactivates the vertex; a received message reactivates it.
func (c *Context) VoteToHalt() { c.vertex.halted = true }

// Aggregator merges values produced by vertices during a superstep.
type Aggregator interface {
	// Add folds one value in.
	Add(value interface{})
	// Merge folds another aggregator of the same kind in.
	Merge(other Aggregator)
	// Value returns the merged result.
	Value() interface{}
}

// AggregatorDef creates fresh aggregator instances.
type AggregatorDef struct {
	New func() Aggregator
}

// WireSizer is optionally implemented by aggregators to report what their
// accumulated value would cost to ship from a worker to the master. The
// engine sums it over all worker aggregators at each barrier into
// SuperstepStats.AggBytes; aggregators that do not implement it count zero.
// Kept separate from BytesSent (the vertex-message transport plane) so the
// two planes' communication claims stay independently measurable.
type WireSizer interface {
	WireSize() int
}

// ComputeFunc runs one vertex for one superstep.
type ComputeFunc func(ctx *Context, v *Vertex, messages []Message)

// MasterFunc runs between supersteps with the merged aggregators. Returning
// true halts the computation after this superstep. The master may set
// aggregator values for the next superstep by returning them in set.
type MasterFunc func(superstep int, aggregated map[string]interface{}) (halt bool, set map[string]interface{})

// SuperstepStats records one superstep's traffic and load. MessagesSent and
// RemoteMessages count envelopes after sender-side combining — what actually
// crossed (or would cross) the transport. BytesSent is the transport's
// accounting: real frame bytes on the TCP backend, codec-measured (or
// MessageBytes-estimated) sizes on the in-process backend.
type SuperstepStats struct {
	Superstep      int
	ActiveVertices int
	MessagesSent   int64
	RemoteMessages int64
	BytesSent      int64
	// AggBytes is the worker->master aggregator traffic of the superstep, as
	// reported by aggregators implementing WireSizer (0 otherwise). Not
	// included in BytesSent: aggregators are merged in-process at the
	// barrier, not shipped through the transport.
	AggBytes        int64
	MaxWorkerActive int // busiest worker's active vertex count (load balance)
}

// Stats aggregates a run.
type Stats struct {
	Supersteps     int
	TotalMessages  int64
	RemoteMessages int64
	TotalBytes     int64
	AggBytes       int64
	// Recoveries counts checkpoint rollbacks taken after a worker failure.
	Recoveries int
	// RetriedFrames counts transport exchanges re-attempted after a
	// transient error (errors wrapping ErrTransient) before succeeding.
	RetriedFrames int64
	// CheckpointBytes is the total encoded size of all snapshots written,
	// measured on the same codec plane as wire bytes.
	CheckpointBytes int64
	PerSuperstep    []SuperstepStats
}

// PhaseTotals attributes the run's traffic to protocol phases for
// computations whose supersteps cycle through a fixed period (superstep s
// plays phase s % period): entry p sums MessagesSent, RemoteMessages, and
// BytesSent over the supersteps of phase p, with Superstep holding the phase
// index and ActiveVertices/MaxWorkerActive the phase's maxima. distshp's
// 4-superstep refinement loop uses this to report what each protocol role
// (bucket updates, gain/delta plane, proposals, moves) costs on the wire.
func (s *Stats) PhaseTotals(period int) []SuperstepStats {
	if period <= 0 {
		return nil
	}
	totals := make([]SuperstepStats, period)
	for p := range totals {
		totals[p].Superstep = p
	}
	for _, ss := range s.PerSuperstep {
		t := &totals[ss.Superstep%period]
		t.MessagesSent += ss.MessagesSent
		t.RemoteMessages += ss.RemoteMessages
		t.BytesSent += ss.BytesSent
		t.AggBytes += ss.AggBytes
		if ss.ActiveVertices > t.ActiveVertices {
			t.ActiveVertices = ss.ActiveVertices
		}
		if ss.MaxWorkerActive > t.MaxWorkerActive {
			t.MaxWorkerActive = ss.MaxWorkerActive
		}
	}
	return totals
}

// Options configures an Engine.
type Options struct {
	// Workers is the number of simulated machines. <= 0 means 1.
	Workers int
	// Compute is the vertex program (required).
	Compute ComputeFunc
	// Master runs between supersteps (optional).
	Master MasterFunc
	// MaxSupersteps bounds the run (required, > 0).
	MaxSupersteps int
	// Aggregators declares the aggregators vertices may use.
	Aggregators map[string]AggregatorDef
	// Transport selects the message-plane backend (nil means the in-process
	// MemoryTransport). See MemoryTransport and TCPTransport.
	Transport Transport
	// Codecs registers binary encoders per message type. Required by the
	// TCP transport; optional for the in-process one, where it upgrades
	// byte accounting from the MessageBytes estimate to encoded sizes.
	Codecs *Registry
	// MessageBytes estimates a message's wire size for byte accounting on
	// the in-process transport when no codec covers the type (optional).
	MessageBytes func(Message) int
	// Combiner, if set, merges messages destined to the same vertex. It is
	// applied in the sender's outbox (reducing transport traffic) and again
	// at the receiver across source workers. It must be commutative and
	// associative, and it must accept every pair of message kinds the
	// computation can address to one vertex within one superstep (protocols
	// that keep per-destination traffic kind-homogeneous, like distshp's,
	// may legitimately panic on cross-kind pairs to surface violations).
	//
	// Ownership: a message belongs to the engine once sent, so the combiner
	// may mutate its first argument and return it (folding pointer messages
	// in place), and must not retain either argument otherwise. In turn a
	// sender must never send one pointer twice — two envelopes sharing a
	// pointer would see each other's folds.
	Combiner func(a, b Message) Message

	// Checkpointer, if set, enables superstep checkpointing: the engine
	// snapshots vertex state, halted flags, pending inboxes, merged
	// aggregator values, and the master blob every CheckpointEvery
	// supersteps, and rolls back to the latest snapshot when an exchange
	// fails with a *WorkerFailure. Nil disables checkpointing (any worker
	// failure aborts the run).
	Checkpointer Checkpointer
	// CheckpointEvery is the snapshot cadence in supersteps. <= 0 means 64.
	// A snapshot is always taken at superstep 0 (before any compute) so
	// recovery is possible from the first barrier onward.
	CheckpointEvery int
	// Snapshots registers codecs for vertex states and aggregator values so
	// snapshots ride the same typed-codec plane as messages. Required when
	// Checkpointer is set and any vertex state or merged aggregator value
	// is non-nil; missing codecs fail the checkpoint loudly rather than
	// dropping state silently.
	Snapshots *Registry
	// MasterSnapshot/MasterRestore serialize master-side closure state that
	// lives outside aggregators (optional). Without them a recovery replays
	// the master function against restored aggregators only, which is wrong
	// for masters that keep private mutable state across supersteps.
	MasterSnapshot func() []byte
	MasterRestore  func(data []byte) error
	// MaxRecoveries bounds checkpoint rollbacks per run. <= 0 means 8.
	MaxRecoveries int
	// ExchangeRetries bounds in-place retries of an exchange that failed
	// with a transient error (wrapping ErrTransient) before the failure is
	// escalated to recovery. <= 0 means 3.
	ExchangeRetries int
	// RetryBackoff is the base delay before the first retry; attempt i
	// waits RetryBackoff << i plus deterministic jitter. <= 0 means 500µs.
	RetryBackoff time.Duration
	// FrameTimeout is the per-frame read/write deadline on the TCP
	// transport. <= 0 means no deadline (a dead peer blocks forever).
	FrameTimeout time.Duration
}

// SumAggregator sums float64 values.
type SumAggregator struct{ sum float64 }

// Add folds one float64 in; any other type panics with an *AggregatorError
// (recovered by the engine into a *ComputeError).
func (a *SumAggregator) Add(v interface{}) {
	f, ok := v.(float64)
	if !ok {
		panic(&AggregatorError{Name: "sum", Reason: fmt.Sprintf("want float64, got %T", v)})
	}
	a.sum += f
}

// Merge folds another SumAggregator in.
func (a *SumAggregator) Merge(o Aggregator) { a.sum += o.(*SumAggregator).sum }

// Value returns the sum.
func (a *SumAggregator) Value() interface{} { return a.sum }

// CountAggregator counts int64 increments.
type CountAggregator struct{ n int64 }

// Add folds one int64 in; any other type panics with an *AggregatorError
// (recovered by the engine into a *ComputeError).
func (a *CountAggregator) Add(v interface{}) {
	d, ok := v.(int64)
	if !ok {
		panic(&AggregatorError{Name: "count", Reason: fmt.Sprintf("want int64, got %T", v)})
	}
	a.n += d
}

// Merge folds another CountAggregator in.
func (a *CountAggregator) Merge(o Aggregator) { a.n += o.(*CountAggregator).n }

// Value returns the count.
func (a *CountAggregator) Value() interface{} { return a.n }
