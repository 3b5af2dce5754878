package pregel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"shp/internal/par"
	"shp/internal/rng"
)

// envelope is one message addressed to a destination vertex.
type envelope struct {
	dst VertexID
	msg Message
}

// inbox holds a worker's received messages as parallel slices in arrival
// order (source worker, then send order), which every transport presents.
type inbox struct {
	dst []VertexID
	msg []Message
}

func (in *inbox) push(env envelope) {
	in.dst = append(in.dst, env.dst)
	in.msg = append(in.msg, env.msg)
}

func (in *inbox) len() int { return len(in.dst) }

func (in *inbox) reset() {
	in.dst = in.dst[:0]
	clear(in.msg) // release references for the collector
	in.msg = in.msg[:0]
}

type worker struct {
	id       int
	vertices []*Vertex // sorted by ID
	in       inbox
	// out buffers this worker's messages per destination worker. With a
	// combiner, slot[dst] is 1 + the index of dst's single envelope in
	// out[workerOf(dst)] (0: none yet), so Send folds into it without a
	// hash lookup — Giraph's sender-side combining, which is what actually
	// reduces wire traffic. Every set slot has exactly one envelope, so
	// clearOutboxes resets the slots by walking the envelopes it clears.
	// The slots cost N int32s per worker.
	out  [][]envelope
	slot []int32
	// Delivery scratch, reused across supersteps: key[i] is the local
	// position of in.dst[i], off the counting sort's run offsets, and
	// sorted the inbox grouped into per-vertex runs.
	key    []int32
	off    []int32
	sorted []Message

	aggregators map[string]Aggregator
}

func (w *worker) clearOutboxes() {
	for d, env := range w.out {
		for i := range env {
			if w.slot != nil {
				w.slot[env[i].dst] = 0
			}
			env[i].msg = nil // release references for the collector
		}
		w.out[d] = env[:0]
	}
}

// Engine is a configured computation over a fixed vertex set.
type Engine struct {
	opts      Options
	transport Transport
	workers   []*worker
	// vertices is indexed by id (ids are dense, 0..N-1); pos[id] is the
	// vertex's position in its worker's id-sorted vertex list.
	vertices   []*Vertex
	pos        []int32
	aggregated map[string]interface{}
	stats      Stats
}

// NewEngine builds an engine over the given vertices. Their ids must be
// exactly 0..N-1 (N = len(vertices)), in any order; anything else — a
// negative id, an id >= N, a gap, or a duplicate — is an error.
func NewEngine(opts Options, vertices []*Vertex) (*Engine, error) {
	if opts.Compute == nil {
		return nil, errors.New("pregel: Compute is required")
	}
	if opts.MaxSupersteps <= 0 {
		return nil, errors.New("pregel: MaxSupersteps must be > 0")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Transport == nil {
		opts.Transport = MemoryTransport()
	}
	n := len(vertices)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("pregel: %d vertices exceed the engine's int32 positions", n)
	}
	e := &Engine{
		opts:       opts,
		transport:  opts.Transport,
		vertices:   make([]*Vertex, n),
		pos:        make([]int32, n),
		aggregated: map[string]interface{}{},
	}
	for _, v := range vertices {
		if v.ID < 0 || v.ID >= VertexID(n) {
			return nil, fmt.Errorf("pregel: vertex id %d outside [0, %d): ids must be dense", v.ID, n)
		}
		if e.vertices[v.ID] != nil {
			return nil, fmt.Errorf("pregel: duplicate vertex id %d", v.ID)
		}
		e.vertices[v.ID] = v
	}
	// n ids in [0, n) with no duplicate leave no gap, so every slot is set.
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		w := &worker{
			id:          i,
			out:         make([][]envelope, opts.Workers),
			aggregators: map[string]Aggregator{},
		}
		if opts.Combiner != nil {
			w.slot = make([]int32, n)
		}
		e.workers[i] = w
	}
	// Ascending ids keep every worker's list sorted, so superstep execution
	// order is deterministic regardless of input order.
	for id, v := range e.vertices {
		w := e.workers[e.workerOf(VertexID(id))]
		e.pos[id] = int32(len(w.vertices))
		w.vertices = append(w.vertices, v)
	}
	return e, nil
}

// workerOf shards a vertex id to a worker (multiplicative hash so dense id
// ranges spread evenly, like Giraph's random vertex placement).
func (e *Engine) workerOf(id VertexID) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(e.workers)))
}

// Run executes supersteps until every vertex halts with no pending messages,
// the master requests a halt, or MaxSupersteps is reached. It returns run
// statistics.
//
// With a Checkpointer configured, the engine snapshots its full barrier
// state (vertex states, halted flags, pending inboxes, merged aggregators,
// master blob) at superstep 0 and every CheckpointEvery supersteps, and a
// *WorkerFailure during an exchange rolls every worker back to the latest
// snapshot and replays. Because compute is deterministic given barrier
// state, the replayed run — and therefore Run's result — is byte-identical
// to an undisturbed one (only Stats.Recoveries/RetriedFrames betray the
// faults). Exchange errors wrapping ErrTransient are retried in place with
// exponential backoff first; anything else escalates to recovery.
func (e *Engine) Run() (*Stats, error) {
	if err := e.transport.start(e); err != nil {
		return nil, err
	}
	defer e.transport.close()

	every := e.opts.CheckpointEvery
	if every <= 0 {
		every = 64
	}
	maxRecoveries := e.opts.MaxRecoveries
	if maxRecoveries <= 0 {
		maxRecoveries = 8
	}
	if e.opts.Checkpointer != nil {
		if err := e.checkpoint(0); err != nil {
			return nil, err
		}
	}

	for step := 0; step < e.opts.MaxSupersteps; {
		active := 0
		maxWorkerActive := 0
		for _, w := range e.workers {
			wa := 0
			for _, v := range w.vertices {
				if !v.halted {
					wa++
				}
			}
			wa += w.in.len()
			if wa > maxWorkerActive {
				maxWorkerActive = wa
			}
			active += wa
		}
		if active == 0 {
			break
		}

		workerErrs := make([]error, len(e.workers))
		par.Each(len(e.workers), func(i int) {
			workerErrs[i] = e.runWorkerSafe(e.workers[i], step)
		})
		for _, werr := range workerErrs {
			if werr != nil {
				// Compute failures are not recoverable by rollback: replaying
				// deterministic compute hits the same bug.
				return nil, werr
			}
		}

		// Barrier: account outboxes (post sender-side combining, so these
		// are the counts that actually cross the transport), exchange, and
		// merge aggregators.
		ss := SuperstepStats{Superstep: step, ActiveVertices: active, MaxWorkerActive: maxWorkerActive}
		for _, w := range e.workers {
			for d := range w.out {
				n := int64(len(w.out[d]))
				ss.MessagesSent += n
				if d != w.id {
					ss.RemoteMessages += n
				}
			}
		}
		wireBytes, err := e.exchangeWithRetry(step)
		if err != nil {
			restored, rerr := e.recoverFrom(err, step, maxRecoveries)
			if rerr != nil {
				return nil, rerr
			}
			step = restored
			continue
		}
		ss.BytesSent = wireBytes

		// Merge worker aggregators worker-major, name-ascending: merge order
		// must never depend on Go map layout, because Merge implementations
		// may be order-sensitive (distshp's proposalAgg adopts histogram
		// pointers on first sight).
		merged := map[string]Aggregator{}
		var mergedNames []string
		for _, w := range e.workers {
			names := make([]string, 0, len(w.aggregators))
			for name := range w.aggregators {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				agg := w.aggregators[name]
				// Aggregator wire accounting: what each worker's accumulated
				// value would cost to ship to the master, summed before the
				// in-process merge collapses it.
				if ws, ok := agg.(WireSizer); ok {
					ss.AggBytes += int64(ws.WireSize())
				}
				if m, ok := merged[name]; ok {
					m.Merge(agg)
				} else {
					merged[name] = agg
					mergedNames = append(mergedNames, name)
				}
			}
			w.aggregators = map[string]Aggregator{}
		}
		sort.Strings(mergedNames)
		e.aggregated = map[string]interface{}{}
		for _, name := range mergedNames {
			e.aggregated[name] = merged[name].Value()
		}

		e.stats.PerSuperstep = append(e.stats.PerSuperstep, ss)
		e.stats.Supersteps++
		e.stats.TotalMessages += ss.MessagesSent
		e.stats.RemoteMessages += ss.RemoteMessages
		e.stats.TotalBytes += ss.BytesSent
		e.stats.AggBytes += ss.AggBytes

		halt := false
		if e.opts.Master != nil {
			var set map[string]interface{}
			halt, set = e.opts.Master(step, e.aggregated)
			//shp:ordered(distinct keys written into a map; insertion order is unobservable)
			for name, v := range set {
				e.aggregated[name] = v
			}
		}
		step++
		if halt {
			break
		}
		if e.opts.Checkpointer != nil && step%every == 0 && step < e.opts.MaxSupersteps {
			if err := e.checkpoint(step); err != nil {
				return nil, err
			}
		}
	}
	return &e.stats, nil
}

// runWorkerSafe runs one worker, converting *AggregatorError panics from
// misused aggregators into a typed *ComputeError; any other panic is a
// genuine bug and propagates with its original stack.
func (e *Engine) runWorkerSafe(w *worker, step int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(*AggregatorError); ok {
				err = &ComputeError{Worker: w.id, Superstep: step, Err: ae}
				return
			}
			panic(r)
		}
	}()
	e.runWorker(w, step)
	return nil
}

// exchangeWithRetry runs the transport exchange, retrying in place (with
// exponential backoff plus deterministic jitter) when the failure is marked
// transient — i.e. the transport guarantees the attempt had no side effect.
func (e *Engine) exchangeWithRetry(step int) (int64, error) {
	retries := e.opts.ExchangeRetries
	if retries <= 0 {
		retries = 3
	}
	backoff := e.opts.RetryBackoff
	if backoff <= 0 {
		backoff = 500 * time.Microsecond
	}
	for attempt := 0; ; attempt++ {
		nb, err := e.transport.exchange(e, step)
		if err == nil {
			return nb, nil
		}
		if !errors.Is(err, ErrTransient) || attempt >= retries {
			return 0, err
		}
		e.stats.RetriedFrames++
		delay := backoff << attempt
		jitter := time.Duration(rng.Mix(uint64(step), uint64(attempt)) % uint64(backoff))
		time.Sleep(delay + jitter)
	}
}

// recoverFrom handles a failed exchange at the given superstep: if the error
// is a *WorkerFailure and a checkpoint is available, it tears down the
// transport, restores the latest snapshot on every worker, rewinds the
// superstep statistics, and restarts the transport, returning the superstep
// to resume from. Any other error — or recovery budget exhaustion — is
// returned unchanged.
func (e *Engine) recoverFrom(err error, step, maxRecoveries int) (int, error) {
	var wf *WorkerFailure
	if !errors.As(err, &wf) {
		return 0, err
	}
	if e.opts.Checkpointer == nil || e.stats.Recoveries >= maxRecoveries {
		return 0, err
	}
	snapStep, snapshot, ok, cerr := e.opts.Checkpointer.Latest()
	if cerr != nil || !ok {
		return 0, err
	}
	e.stats.Recoveries++
	e.transport.close()
	if rerr := e.restoreSnapshot(snapshot); rerr != nil {
		return 0, fmt.Errorf("pregel: recovery from %v failed: %w", err, rerr)
	}
	// Rewind run statistics to the checkpoint boundary; the replay will
	// re-append identical per-superstep entries (compute is deterministic),
	// keeping PerSuperstep comparable to an undisturbed run. The resilience
	// counters (Recoveries, RetriedFrames, CheckpointBytes) deliberately
	// survive the rewind: they are the cost of the faults themselves.
	e.stats.PerSuperstep = e.stats.PerSuperstep[:snapStep]
	e.stats.Supersteps = snapStep
	e.stats.TotalMessages, e.stats.RemoteMessages = 0, 0
	e.stats.TotalBytes, e.stats.AggBytes = 0, 0
	for _, ss := range e.stats.PerSuperstep {
		e.stats.TotalMessages += ss.MessagesSent
		e.stats.RemoteMessages += ss.RemoteMessages
		e.stats.TotalBytes += ss.BytesSent
		e.stats.AggBytes += ss.AggBytes
	}
	if serr := e.transport.start(e); serr != nil {
		return 0, fmt.Errorf("pregel: transport restart after recovery: %w", serr)
	}
	return snapStep, nil
}

// runWorker executes one worker's vertices for one superstep, delivering
// each vertex its run of the sorted inbox.
func (e *Engine) runWorker(w *worker, step int) {
	hasMail := w.in.len() > 0
	if hasMail {
		e.sortInbox(w)
	}
	comb := e.opts.Combiner
	ctx := &Context{engine: e, worker: w, superstep: step}
	for p, v := range w.vertices {
		var msgs []Message
		if hasMail {
			lo, hi := w.off[p], w.off[p+1]
			msgs = w.sorted[lo:hi:hi]
			if comb != nil && len(msgs) > 1 {
				// Receiver-side pass: sender-side combining already folded
				// each worker's own traffic, this folds across source
				// workers in arrival order.
				m := msgs[0]
				for _, x := range msgs[1:] {
					m = comb(m, x)
				}
				msgs[0] = m
				msgs = msgs[:1:1]
			}
		}
		if v.halted && len(msgs) == 0 {
			continue
		}
		v.halted = false
		ctx.vertex = v
		e.opts.Compute(ctx, v, msgs)
	}
	if hasMail {
		clear(w.sorted)
		w.sorted = w.sorted[:0]
	}
	w.in.reset()
}

// sortInbox groups w's inbox into per-vertex runs with a stable counting
// sort on local positions, in O(messages + vertices): afterwards the
// messages of the vertex at position p are w.sorted[w.off[p]:w.off[p+1]],
// in arrival order. Every inbox entry addresses a vertex of w: Send drops
// out-of-range ids, and the TCP transport and snapshot restore reject
// misaddressed ones.
func (e *Engine) sortInbox(w *worker) {
	n := len(w.vertices)
	// off[p+2] counts position p, so the prefix sum leaves off[p+1] at the
	// start of p's run and the scatter advances it to the run's end: then
	// off[p] and off[p+1] bound every run p.
	off := slices.Grow(w.off[:0], n+2)[:n+2]
	clear(off)
	key := w.key[:0]
	for _, dst := range w.in.dst {
		p := e.pos[dst]
		key = append(key, p)
		off[p+2]++
	}
	for i := 2; i <= n+1; i++ {
		off[i] += off[i-1]
	}
	sorted := slices.Grow(w.sorted[:0], len(w.in.msg))[:len(w.in.msg)]
	for i, m := range w.in.msg {
		p := key[i]
		sorted[off[p+1]] = m
		off[p+1]++
	}
	w.key, w.off, w.sorted = key, off, sorted
}

// owns reports whether dst is a vertex of worker w: what the transport and
// snapshot restore check before an envelope may enter w's inbox.
func (e *Engine) owns(w int, dst VertexID) bool {
	return dst >= 0 && dst < VertexID(len(e.vertices)) && e.workerOf(dst) == w
}

// Vertex returns the vertex with the given id (nil if absent). Intended for
// result extraction after Run.
func (e *Engine) Vertex(id VertexID) *Vertex {
	if id < 0 || id >= VertexID(len(e.vertices)) {
		return nil
	}
	return e.vertices[id]
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return len(e.workers) }
