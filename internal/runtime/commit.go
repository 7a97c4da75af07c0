package runtime

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trace"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// This file holds the one commit pipeline every state-mutating
// invocation runs through: a commit window over one object that loads
// its state once, runs a group of handlers against the evolving view,
// and persists the merged delta in one commit. Invoke is a window of
// one call; InvokeBatch is a window of many.

// BatchCall is one method call of an InvokeBatch group. All calls of a
// group target the same object.
type BatchCall struct {
	// Function is the method name (must be a declared function, not a
	// dataflow).
	Function string
	// Payload is the request body.
	Payload json.RawMessage
	// Args are free-form invocation parameters.
	Args map[string]string
	// Ctx optionally scopes this call's handler execution (the async
	// queue passes each submitter's context). The batch context is used
	// when nil; state I/O always runs under the batch context so one
	// cancelled submitter cannot abort the group's shared load/commit.
	Ctx context.Context
}

// BatchCallResult is one call's outcome. Results are independent: a
// failing or panicking handler poisons only its own entry, and its
// delta is excluded from the merged commit.
type BatchCallResult struct {
	Output json.RawMessage
	Err    error
}

// writerCall is one state-mutating call of a commit window.
type writerCall struct {
	// idx is the call's position in the caller's results.
	idx int
	fn  model.FunctionDef
	// ctx is the call's handler context, resolved once at entry (its
	// deadline already applied); nil runs the handler under the
	// window's context.
	ctx     context.Context
	cancel  context.CancelFunc
	payload json.RawMessage
	args    map[string]string
	// delta is the handler's validated state delta from the window's
	// current attempt (nil when the call failed or wrote nothing); once
	// the commit lands, emit turns it into the call's StateChanged event.
	delta map[string]json.RawMessage
}

// noCancel is the cancel func of a context that needed no deadline.
func noCancel() {}

// InvokeBatch executes a group of method calls on one object in a
// single commit window — the path the async queue's drain dispatches
// every same-object group through, a lone task included. Instead of
// paying one load→invoke→commit window (and one simulated DB round
// trip) per call, the group pays one: the window takes the object's
// concurrency protection once, loads its state once, runs the handlers
// sequentially against the evolving view, and persists the merged
// delta in one commit (see commitWindow).
//
// Calls annotated readonly bypass the window entirely and serve from
// the lock-free fast path. Per-call results stay independent: an
// unknown function, a handler error, a panic, or a rogue delta fails
// only that call's entry while the rest of the group commits. Handlers
// observe the deltas of earlier successful calls in the group (the
// evolving view), matching the state they would have seen had the
// calls run back-to-back. Each call's deadline is armed once, here, and
// covers every attempt of the window.
func (rt *ClassRuntime) InvokeBatch(ctx context.Context, objectID string, calls []BatchCall) []BatchCallResult {
	results := make([]BatchCallResult, len(calls))
	if len(calls) == 0 {
		return results
	}
	start := rt.infra.Clock.Now()
	group := make([]writerCall, 0, len(calls))
	for i, c := range calls {
		fn, ok := rt.class.Function(c.Function)
		if !ok {
			results[i].Err = fmt.Errorf("%w: %s.%s", ErrFunctionUnknown, rt.class.Name, c.Function)
			continue
		}
		cctx, cancel := c.Ctx, context.CancelFunc(noCancel)
		if d := rt.effectiveTimeout(fn); d > 0 {
			cctx, cancel = context.WithTimeout(cmp.Or(cctx, ctx), d)
		}
		if fn.Readonly {
			out, err := rt.invokeReadonlySafe(cmp.Or(cctx, ctx), objectID, fn, c.Payload, c.Args)
			cancel()
			results[i] = BatchCallResult{Output: out, Err: err}
			continue
		}
		group = append(group, writerCall{idx: i, fn: fn, ctx: cctx, cancel: cancel, payload: c.Payload, args: c.Args})
	}
	if len(group) > 0 {
		rt.commitWindow(ctx, objectID, group, results)
		for i := range group {
			group[i].cancel()
		}
	}
	failed := 0
	for i := range results {
		if results[i].Err != nil {
			failed++
		}
	}
	// Every group member counts as one invocation; its effective latency
	// is the group window (the calls complete together at the merged
	// commit).
	rt.observe(start, len(calls), failed)
	return results
}

// observe books calls finished invocations, failed of them errors,
// whose window opened at start.
func (rt *ClassRuntime) observe(start time.Time, calls, failed int) {
	elapsed := rt.infra.Clock.Since(start)
	for range calls {
		rt.latency.Observe(elapsed)
	}
	rt.total.Add(int64(calls))
	rt.failures.Add(int64(failed))
	rt.meter.Mark(int64(calls))
}

// windowExpired reports the window-level error for an expired or
// cancelled window context (nil while the context is live). Expiry
// maps to the runtime deadline sentinel.
func (rt *ClassRuntime) windowExpired(ctx context.Context, objectID string) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("runtime: %s/%s: %w", rt.class.Name, objectID, ErrDeadlineExceeded)
	}
	return err
}

// invokeReadonlySafe is invokeReadonly with panic isolation: a
// panicking handler fails its own call instead of unwinding the group.
func (rt *ClassRuntime) invokeReadonlySafe(ctx context.Context, objectID string, fn model.FunctionDef, payload json.RawMessage, args map[string]string) (out json.RawMessage, err error) {
	defer rt.recoverCall(fn, &err)
	return rt.invokeReadonly(ctx, objectID, fn, payload, args)
}

// runTaskSafe is runTask with panic isolation.
func (rt *ClassRuntime) runTaskSafe(ctx context.Context, objectID string, fn model.FunctionDef, payload json.RawMessage, args map[string]string, state map[string]json.RawMessage) (res invoker.Result, err error) {
	defer rt.recoverCall(fn, &err)
	return rt.runTask(ctx, objectID, fn, payload, args, state)
}

// recoverCall converts a handler panic into that call's error.
func (rt *ClassRuntime) recoverCall(fn model.FunctionDef, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("runtime: handler panic in %s.%s: %v", rt.class.Name, fn.Name, r)
	}
}

// commitWindow runs the state-mutating calls of one object in a single
// window and fills their results. A window-level failure (state load,
// commit I/O, fence, expiry, persistent contention) commits nothing,
// so every call that thought it succeeded fails with it; calls that
// already carry their own deterministic error (handler failure, panic,
// rogue delta) keep it. The pooled scratch lives exactly as long as
// the window, retries included.
func (rt *ClassRuntime) commitWindow(ctx context.Context, objectID string, group []writerCall, results []BatchCallResult) {
	sc := getScratch()
	defer sc.release()
	if err := rt.runWindow(ctx, sc, objectID, group, results); err != nil {
		for i := range group {
			if r := &results[group[i].idx]; r.Err == nil {
				*r = BatchCallResult{Err: err}
			}
		}
	}
}

// runWindow chooses how the window is protected against concurrent
// invocations on the same object, from the class's concurrency mode:
//
//   - locked: the whole window runs once under the object's striped
//     lock and commits unvalidated — hot-object invocations queue.
//   - occ: the handlers run lock-free on a version-stamped snapshot and
//     the delta commits through a validated compare-and-swap; on
//     ErrVersionMismatch the window re-loads and re-runs (the
//     pure-function contract makes re-execution safe), escalating to
//     the exclusive delete-guard barrier after maxOCCAttempts so
//     progress never depends on winning the race.
//   - adaptive (default): a per-object abort-rate EWMA picks between
//     the two — lock-free while commits land, the barrier while the
//     object is pathologically write-hot, back to lock-free when aborts
//     subside. Every non-locked commit is version-validated, so mixing
//     the regimes on one object cannot lose updates.
//
// Stateless classes take no lock (there is no state to race on), so
// parallel dataflow fan-out steps stay concurrent.
//
// Because lock-free windows hold only the read side of their
// delete-guard stripe, a handler may synchronously invoke another
// stateful object of the same class under occ: a nested invocation on a
// colliding stripe shares the read side and proceeds. It can still
// deadlock if an exclusive acquisition (object delete/init, or a
// barrier fallback) wedges between the two read holds of one
// goroutine, so dataflows/async remain the guaranteed-safe
// composition; under locked mode such a nested call on a colliding
// stripe deadlocks.
func (rt *ClassRuntime) runWindow(ctx context.Context, sc *invokeScratch, objectID string, group []writerCall, results []BatchCallResult) error {
	if len(rt.stateSpecs) == 0 {
		return rt.attempt(ctx, sc, objectID, group, results, false, 0)
	}
	if rt.concMode == model.ConcurrencyLocked {
		mu := rt.objLocks.For(objectID)
		mu.Lock()
		defer mu.Unlock()
		return rt.attempt(ctx, sc, objectID, group, results, false, 0)
	}
	// One hash resolves the object's stripe for both the delete guard
	// and its contention tracker, keeping the two aligned.
	stripe := rt.delGuard.Index(objectID)
	guard := rt.delGuard.At(stripe)
	tr := &rt.contention[stripe]
	if rt.concMode == model.ConcurrencyAdaptive && tr.useLocked() {
		rt.fallbacks.Inc()
		return rt.retry(ctx, sc, objectID, group, results, guard, true, tr)
	}
	err := rt.retry(ctx, sc, objectID, group, results, guard, false, tr)
	if errors.Is(err, memtable.ErrVersionMismatch) {
		// The bounded lock-free loop kept losing the commit race; finish
		// behind the barrier, which drains and excludes the racers.
		rt.fallbacks.Inc()
		return rt.retry(ctx, sc, objectID, group, results, guard, true, tr)
	}
	return err
}

// retry drives the bounded validated retry loop: re-run the whole
// window against a fresh snapshot on each version mismatch. Lock-free
// (barrier false) it holds the object's delete guard shared, so
// concurrent windows interleave freely while an exclusive holder
// (object delete/init, or a barrier window) still waits out every
// in-flight one; exhaustion returns the last mismatch for escalation.
// Under the barrier it holds the guard exclusive: pending writer
// acquisition drains the lock-free racers, so a commit can only be
// aborted by guard-free writers (direct PutState), each abort implies
// another commit landed, and exhaustion is terminal. A successful pass
// books one commit per committed call.
func (rt *ClassRuntime) retry(ctx context.Context, sc *invokeScratch, objectID string, group []writerCall, results []BatchCallResult, guard *sync.RWMutex, barrier bool, tr *contentionTracker) error {
	attempts := maxOCCAttempts
	if barrier {
		attempts = maxLockedCASAttempts
		guard.Lock()
		defer guard.Unlock()
	} else {
		guard.RLock()
		defer guard.RUnlock()
	}
	var err error
	for n := 0; n < attempts; n++ {
		if err := rt.windowExpired(ctx, objectID); err != nil {
			return err
		}
		if n > 0 {
			rt.retries.Inc()
		}
		err = rt.attempt(ctx, sc, objectID, group, results, true, n)
		if !errors.Is(err, memtable.ErrVersionMismatch) {
			if err == nil {
				tr.record(false)
				for i := range group {
					if results[group[i].idx].Err == nil {
						rt.commits.Inc()
					}
				}
			}
			return err
		}
		tr.record(true)
		rt.aborts.Inc()
	}
	if barrier {
		return fmt.Errorf("runtime: %s/%s: commit contention persisted through %d serialized attempts: %w",
			rt.class.Name, objectID, attempts, err)
	}
	return err
}

// attempt runs one pass of the window: versioned load, the handlers on
// the evolving view, the expiry guard, then the commit — op building,
// the epoch fence and one PutManyIfVersion — and, once it lands, the
// commit's events. A validated attempt returns
// memtable.ErrVersionMismatch when a concurrent commit invalidated its
// snapshot, and runs under an "occ.attempt" span (load/handler/commit
// nest inside it); a mismatch is normal protocol flow, recorded as a
// span attribute rather than an error, so contention alone never forces
// a trace to be kept. An unvalidated attempt (locked mode, stateless
// classes) writes with memtable.AnyVersion and never aborts.
func (rt *ClassRuntime) attempt(ctx context.Context, sc *invokeScratch, objectID string, group []writerCall, results []BatchCallResult, validate bool, n int) (err error) {
	if validate {
		if asp := trace.FromContext(ctx).Child("occ.attempt"); asp != nil {
			asp.SetInt("attempt", n)
			ctx = trace.ContextWith(ctx, asp)
			defer func() {
				if errors.Is(err, memtable.ErrVersionMismatch) {
					asp.SetAttr("abort", "version_mismatch")
				} else {
					asp.Error(err)
				}
				asp.End()
			}()
		}
	}
	snap, err := rt.loadStateVersioned(ctx, objectID, sc)
	if err != nil {
		return err
	}
	merged := rt.applyGroup(ctx, objectID, group, snap.state, results)
	// An expired window never commits: its callers have been (or are
	// being) failed with the deadline error, so a late commit would be a
	// lost-response write.
	if err := rt.windowExpired(ctx, objectID); err != nil {
		return err
	}
	if len(merged) == 0 {
		return nil
	}
	ops := rt.commitOps(objectID, snap, merged, validate)
	csp := trace.FromContext(ctx).Child("commit")
	if len(group) > 1 {
		csp.SetInt("calls", len(group))
	}
	// Epoch fence: a commit admitted under ownership that has since
	// moved must not land, whatever local protection the window holds —
	// it means nothing to the new owner. The fence error is not
	// ErrVersionMismatch, so no retry re-runs against state this node no
	// longer owns.
	if rt.infra.Fence != nil {
		err = rt.infra.Fence(ctx, objectID)
	}
	if err == nil {
		err = rt.table.PutManyIfVersion(ctx, ops)
	}
	if errors.Is(err, memtable.ErrVersionMismatch) {
		csp.SetAttr("abort", "version_mismatch")
	} else {
		csp.Error(err)
	}
	csp.End()
	if err == nil {
		rt.emit(ctx, sc, objectID, group)
	}
	return err
}

// commitOps turns the window's merged delta into its commit: a write op
// per delta key (JSON null deletes). A validated commit expects each
// written key at its snapshot version and — in the default
// full-read-set mode — adds check-only ops for every other snapshot
// key, so decisions based on unwritten keys cannot commit against
// changed state (write skew); under model.OCCValidateKeys only the
// written keys are validated. A declared key outside the structured
// snapshot (a file key written as state) and every op of an
// unvalidated commit write unconditionally. The returned map is the
// window's pooled scratch.
func (rt *ClassRuntime) commitOps(objectID string, snap stateSnapshot, merged map[string]json.RawMessage, validate bool) map[string]memtable.CASOp {
	ops := snap.sc.ops
	clear(ops)
	if validate && !rt.occKeysOnly {
		for _, key := range snap.keys.keys {
			ops[key] = memtable.CASOp{Expect: snap.sc.got[key].Version}
		}
	}
	for k, v := range merged {
		op := memtable.CASOp{Expect: memtable.AnyVersion, Write: true}
		key, inSnap := snap.keys.byName[k]
		if !inSnap {
			key = rt.stateKey(objectID, k)
		} else if validate {
			op.Expect = snap.sc.got[key].Version
		}
		if !isNull(v) {
			op.Value = v
		}
		ops[key] = op
	}
	return ops
}

// applyGroup runs the window's handlers sequentially against the
// evolving state view, filling per-call results and returning the
// merged delta (JSON null marks a delete). The view mutates as each
// successful call lands: call i+1 observes call i's writes. A failing,
// panicking, expired or rogue-delta call contributes nothing to the
// view or the merged delta. Each attempt overwrites every call's result
// and delta, so optimistic re-runs start clean.
//
// Handlers may mutate their Task.State, so every call but the last gets
// a shallow clone of the view; the last gets the view itself, which
// nothing reads after it. A lone successful delta is the merged delta
// as is; only a second one makes applyGroup copy into a map of its own,
// so no handler-owned map is ever written.
func (rt *ClassRuntime) applyGroup(ctx context.Context, objectID string, group []writerCall, state map[string]json.RawMessage, results []BatchCallResult) map[string]json.RawMessage {
	var merged map[string]json.RawMessage
	owned := false
	last := len(group) - 1
	for i := range group {
		w := &group[i]
		w.delta = nil
		cctx := cmp.Or(w.ctx, ctx)
		view := state
		if i < last {
			view = maps.Clone(state)
		}
		res, err := rt.runTaskSafe(cctx, objectID, w.fn, w.payload, w.args, view)
		if err == nil && cctx.Err() != nil {
			// The call's deadline expired after its handler returned: its
			// delta must not ride the commit, and only this entry fails.
			err = rt.ctxAbort(cctx, w.fn)
		}
		if err == nil {
			err = rt.validateDelta(w.fn, res.State)
		}
		if err != nil {
			results[w.idx] = BatchCallResult{Err: err}
			continue
		}
		results[w.idx] = BatchCallResult{Output: res.Output}
		if len(res.State) == 0 {
			continue
		}
		w.delta = res.State
		if merged == nil {
			merged = res.State
		} else {
			if !owned {
				merged, owned = maps.Clone(merged), true
			}
			maps.Copy(merged, res.State)
		}
		if i == last {
			continue
		}
		for k, v := range res.State {
			spec, _ := rt.class.Key(k)
			if spec.Kind == model.KindFile {
				// A file key written as state persists but never appears
				// in the structured view.
				continue
			}
			if isNull(v) {
				// A deleted key resolves back to its class default for
				// later calls, exactly as a fresh load would.
				if len(spec.Default) > 0 {
					state[k] = spec.Default
				} else {
					delete(state, k)
				}
				continue
			}
			state[k] = v
		}
	}
	return merged
}

// validateDelta rejects a handler delta touching undeclared keys; a
// rogue delta persists nothing (per-call, the rest of the group is
// unaffected).
func (rt *ClassRuntime) validateDelta(fn model.FunctionDef, delta map[string]json.RawMessage) error {
	for k := range delta {
		if _, ok := rt.class.Key(k); !ok {
			return fmt.Errorf("runtime: function %s.%s wrote undeclared key %q", rt.class.Name, fn.Name, k)
		}
	}
	return nil
}

// emit publishes the StateChanged events of a landed commit: one per
// committed call with a non-empty delta, carrying the sorted key names
// of its delta (deletes included), the trigger-chain depth of the
// invocation (so chained reactions can be cycle-limited) and its
// traceparent (so the trigger plane re-joins the trace). Failed calls,
// aborted attempts and committed calls that wrote nothing emit nothing.
// The window's events go out as one EventsBatch publication, so the
// durable event log appends them in one backing write, matching the
// commit's own one-write cost. It runs while the window still holds
// its lock or guard, so serialized commits publish in commit order.
func (rt *ClassRuntime) emit(ctx context.Context, sc *invokeScratch, objectID string, group []writerCall) {
	if !rt.eventsNeeded() {
		return
	}
	for i := range group {
		w := &group[i]
		if len(w.delta) == 0 {
			continue
		}
		sc.evs = append(sc.evs, trigger.Event{
			Type:     trigger.StateChanged,
			Class:    rt.class.Name,
			Object:   objectID,
			Function: w.fn.Name,
			Keys:     deltaKeys(w.delta),
			Depth:    trigger.DepthOf(w.args),
			Trace:    trace.FromContext(cmp.Or(w.ctx, ctx)).Traceparent(),
		})
	}
	if len(sc.evs) > 0 {
		rt.infra.EventsBatch(sc.evs)
	}
}
