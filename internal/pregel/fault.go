package pregel

import (
	"errors"
	"fmt"
	"time"
)

// ErrTransient marks a transport error as retryable in place: the exchange
// failed before any side effect (no partial frame written, no inbox
// mutated), so simply calling exchange again is safe. Transports and
// wrappers must wrap this sentinel ONLY for such side-effect-free failures;
// anything else must surface as a *WorkerFailure so the engine rolls back
// to a checkpoint instead of desynchronizing the frame stream.
var ErrTransient = errors.New("pregel: transient transport error")

// WorkerFailure reports that a worker became unreachable (or its connection
// was poisoned by a partial frame) during the exchange at a superstep. It is
// the trigger for checkpoint recovery: with a Checkpointer configured the
// engine rolls back and replays; without one, Run returns it.
type WorkerFailure struct {
	Worker    int
	Superstep int
	Err       error
}

func (f *WorkerFailure) Error() string {
	return fmt.Sprintf("pregel: worker %d failed at superstep %d: %v", f.Worker, f.Superstep, f.Err)
}

func (f *WorkerFailure) Unwrap() error { return f.Err }

// AggregatorError reports an aggregator misuse: an unknown name, or a value
// of the wrong type fed to Add. Aggregator implementations panic with it;
// the engine recovers the panic into a *ComputeError so Run fails cleanly.
type AggregatorError struct {
	Name   string
	Reason string
}

func (e *AggregatorError) Error() string {
	return fmt.Sprintf("pregel: aggregator %q: %s", e.Name, e.Reason)
}

// ComputeError reports a vertex-program failure on one worker. It is not
// recoverable by checkpoint rollback — replaying deterministic compute
// would hit the same bug — so Run returns it immediately.
type ComputeError struct {
	Worker    int
	Superstep int
	Err       error
}

func (e *ComputeError) Error() string {
	return fmt.Sprintf("pregel: worker %d superstep %d: %v", e.Worker, e.Superstep, e.Err)
}

func (e *ComputeError) Unwrap() error { return e.Err }

// FrameError reports a malformed transport frame: the envelope at index
// Envelope failed to decode or is misaddressed (Envelope equals the frame's
// count when the payload runs past its last envelope). The TCP transport
// wraps it in a *WorkerFailure, blaming the sender.
type FrameError struct {
	Envelope int
	Err      error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("pregel: malformed frame at envelope %d: %v", e.Envelope, e.Err)
}

func (e *FrameError) Unwrap() error { return e.Err }

// FaultPlan schedules deterministic faults for a FaultyTransport. The zero
// value injects nothing.
type FaultPlan struct {
	// KillWorker/KillStep: at the exchange of superstep KillStep, fail
	// permanently with a *WorkerFailure blaming KillWorker. Enabled iff
	// KillStep > 0 (superstep 0's exchange cannot be killed; the initial
	// checkpoint is taken at step 0, so a kill there has nothing to roll
	// back past). The kill fires once per transport instance: after the
	// engine recovers and replays, the same step passes.
	KillWorker int
	KillStep   int
	// DropEvery > 0 drops the first attempt of every DropEvery-th exchange
	// (supersteps where step % DropEvery == DropEvery-1) with a transient
	// error, exercising the in-place retry path. The drop happens before
	// the inner transport runs, so it is side-effect-free by construction.
	DropEvery int
	// DelayEvery > 0 sleeps Delay before every DelayEvery-th exchange.
	DelayEvery int
	Delay      time.Duration
}

// faultyTransport wraps an inner Transport and injects the faults scheduled
// by its plan. Faults are a deterministic function of (superstep, attempt),
// so a recovered replay sees the same world minus the one-shot kill.
type faultyTransport struct {
	inner   Transport
	plan    FaultPlan
	killed  bool
	dropped map[int]bool // superstep -> already dropped once
}

// FaultyTransport wraps inner with deterministic fault injection. Pass the
// result as Options.Transport to test recovery paths; see FaultPlan.
func FaultyTransport(inner Transport, plan FaultPlan) Transport {
	return &faultyTransport{inner: inner, plan: plan, dropped: map[int]bool{}}
}

func (t *faultyTransport) start(e *Engine) error { return t.inner.start(e) }

func (t *faultyTransport) exchange(e *Engine, superstep int) (int64, error) {
	if t.plan.DelayEvery > 0 && superstep%t.plan.DelayEvery == t.plan.DelayEvery-1 {
		time.Sleep(t.plan.Delay)
	}
	if !t.killed && t.plan.KillStep > 0 && superstep == t.plan.KillStep {
		t.killed = true
		// A real worker death poisons its connections; mirror that by
		// closing the inner transport. The engine's recovery closes and
		// restarts the transport anyway, so this only asserts that restart
		// works from a torn-down state, not just a drained one.
		_ = t.inner.close()
		return 0, &WorkerFailure{
			Worker:    t.plan.KillWorker,
			Superstep: superstep,
			Err:       errors.New("injected worker kill"),
		}
	}
	if t.plan.DropEvery > 0 && superstep%t.plan.DropEvery == t.plan.DropEvery-1 && !t.dropped[superstep] {
		t.dropped[superstep] = true
		return 0, fmt.Errorf("injected frame drop at superstep %d: %w", superstep, ErrTransient)
	}
	return t.inner.exchange(e, superstep)
}

func (t *faultyTransport) close() error { return t.inner.close() }
