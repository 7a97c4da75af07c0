package runtime

// Tests for the one commit window both entry points share: a guard
// matrix over {Invoke, InvokeBatch of 1, InvokeBatch of 3} x every
// concurrency mode, and the deadline that must cover every commit
// attempt. The warm single-call allocation pin is in allocs_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
)

// guardYAML declares a counter with a write, a no-op write method and
// a rogue-delta method under one concurrency mode.
const guardYAML = `classes:
  - name: Guarded
    concurrencyMode: %s
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: incr
        image: img/incr
      - name: noop
        image: img/noop
      - name: rogue
        image: img/rogue
`

// entryPoint invokes fn on an object through one public entry point and
// returns one error per call it made.
type entryPoint struct {
	name  string
	calls int
	run   func(rt *ClassRuntime, object, fn string) []error
}

var entryPoints = []entryPoint{
	{"invoke", 1, func(rt *ClassRuntime, object, fn string) []error {
		_, err := rt.Invoke(context.Background(), object, fn, nil, nil)
		return []error{err}
	}},
	{"batch1", 1, batchEntry(1)},
	{"batch3", 3, batchEntry(3)},
}

func batchEntry(n int) func(rt *ClassRuntime, object, fn string) []error {
	return func(rt *ClassRuntime, object, fn string) []error {
		calls := make([]BatchCall, n)
		for i := range calls {
			calls[i] = BatchCall{Function: fn}
		}
		var errs []error
		for _, res := range rt.InvokeBatch(context.Background(), object, calls) {
			errs = append(errs, res.Err)
		}
		return errs
	}
}

// TestCommitWindowGuardMatrix checks that every guard of the commit
// window holds the same way whichever entry point opened it: a fence
// rejection fails every call and writes and emits nothing, an empty
// delta commits and emits nothing, a rogue delta persists nothing, and
// occ.commits counts each committed call (never in locked mode).
func TestCommitWindowGuardMatrix(t *testing.T) {
	errFence := errors.New("ownership moved")
	for _, mode := range batchModes {
		for _, ep := range entryPoints {
			t.Run(string(mode)+"/"+ep.name, func(t *testing.T) {
				rec := &eventRecorder{}
				var fenced atomic.Bool
				infra := testInfra(t)
				reg := invoker.NewRegistry()
				reg.Register("img/incr", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
					var n float64
					_ = json.Unmarshal(task.State["value"], &n)
					out, _ := json.Marshal(n + 1)
					return invoker.Result{Output: out, State: map[string]json.RawMessage{"value": out}}, nil
				}))
				reg.Register("img/noop", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
					return invoker.Result{Output: json.RawMessage(`"ok"`)}, nil
				}))
				reg.Register("img/rogue", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
					return invoker.Result{State: map[string]json.RawMessage{
						"value": json.RawMessage(`42`), "undeclared": json.RawMessage(`1`),
					}}, nil
				}))
				infra.Transport = invoker.NewLocal(reg)
				infra.EventsBatch = rec.emit
				infra.Fence = func(context.Context, string) error {
					if fenced.Load() {
						return errFence
					}
					return nil
				}
				rt, err := New(infra, resolvedClass(t, fmt.Sprintf(guardYAML, mode), "Guarded"), stdTemplate())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rt.Close)
				ctx := context.Background()
				if err := rt.InitObjectState(ctx, "g"); err != nil {
					t.Fatal(err)
				}
				key := rt.stateKey("g", "value")
				version := func() int64 {
					got, err := rt.Table().GetManyVersioned(ctx, []string{key})
					if err != nil {
						t.Fatal(err)
					}
					return got[key].Version
				}
				// expect checks the committed value and the event and commit
				// counts after one step.
				wantCommits := int64(0)
				expect := func(step, value string, committed bool, events int) {
					t.Helper()
					if v, err := rt.GetState(ctx, "g", "value"); err != nil || string(v) != value {
						t.Fatalf("%s: value = %s (%v), want %s", step, v, err, value)
					}
					if got := len(rec.snapshot()); got != events {
						t.Fatalf("%s: events = %d, want %d", step, got, events)
					}
					if committed && mode != model.ConcurrencyLocked {
						wantCommits += int64(ep.calls)
					}
					if got := rt.ConcurrencyStats().Commits; got != wantCommits {
						t.Fatalf("%s: occ.commits = %d, want %d", step, got, wantCommits)
					}
				}

				fenced.Store(true)
				before := version()
				for i, err := range ep.run(rt, "g", "incr") {
					if !errors.Is(err, errFence) {
						t.Fatalf("fenced call %d: err = %v, want the fence error", i, err)
					}
				}
				if version() != before {
					t.Fatal("fenced window wrote state")
				}
				expect("fence", "0", false, 0)
				fenced.Store(false)

				for i, err := range ep.run(rt, "g", "noop") {
					if err != nil {
						t.Fatalf("noop call %d: %v", i, err)
					}
				}
				if version() != before {
					t.Fatal("empty delta committed a write")
				}
				expect("empty delta", "0", true, 0)

				for i, err := range ep.run(rt, "g", "rogue") {
					if err == nil || !strings.Contains(err.Error(), "undeclared key") {
						t.Fatalf("rogue call %d: err = %v, want an undeclared-key error", i, err)
					}
				}
				if version() != before {
					t.Fatal("rogue delta persisted a write")
				}
				if _, err := rt.Table().Get(ctx, rt.stateKey("g", "undeclared")); !errors.Is(err, memtable.ErrNotFound) {
					t.Fatalf("rogue key persisted: %v", err)
				}
				expect("rogue delta", "0", false, 0)

				for i, err := range ep.run(rt, "g", "incr") {
					if err != nil {
						t.Fatalf("incr call %d: %v", i, err)
					}
				}
				expect("incr", fmt.Sprint(ep.calls), true, ep.calls)
			})
		}
	}
}

// TestDeadlineCoversEveryAttempt pins that a call's deadline is armed
// once and spans all of its commit attempts. The handler takes 40ms of
// a 60ms deadline and, on its first run, writes the key behind the
// window's back, so the first commit aborts on a version mismatch. The
// re-run cannot finish inside what is left of the deadline: the call
// must fail with ErrDeadlineExceeded and its delta must never land.
func TestDeadlineCoversEveryAttempt(t *testing.T) {
	const yaml = `classes:
  - name: Slow
    concurrencyMode: %s
    keySpecs:
      - name: value
        kind: number
        default: 0
    functions:
      - name: slow
        image: img/slow
        timeoutMs: 60
`
	for _, mode := range []model.ConcurrencyMode{model.ConcurrencyOCC, model.ConcurrencyAdaptive} {
		for _, ep := range entryPoints[:2] {
			t.Run(string(mode)+"/"+ep.name, func(t *testing.T) {
				var rt *ClassRuntime
				var runs atomic.Int32
				infra := testInfra(t)
				reg := invoker.NewRegistry()
				reg.Register("img/slow", invoker.HandlerFunc(func(_ context.Context, task invoker.Task) (invoker.Result, error) {
					if runs.Add(1) == 1 {
						if err := rt.PutState(context.Background(), task.Object, "value", json.RawMessage(`100`)); err != nil {
							return invoker.Result{}, err
						}
					}
					time.Sleep(40 * time.Millisecond)
					return invoker.Result{State: map[string]json.RawMessage{"value": json.RawMessage(`7`)}}, nil
				}))
				infra.Transport = invoker.NewLocal(reg)
				var err error
				rt, err = New(infra, resolvedClass(t, fmt.Sprintf(yaml, mode), "Slow"), stdTemplate())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rt.Close)
				ctx := context.Background()
				if err := rt.InitObjectState(ctx, "s"); err != nil {
					t.Fatal(err)
				}
				errs := ep.run(rt, "s", "slow")
				if !errors.Is(errs[0], ErrDeadlineExceeded) {
					t.Fatalf("err = %v after %d handler runs, want ErrDeadlineExceeded", errs[0], runs.Load())
				}
				drainLeakedHandlers(t, rt)
				if v, err := rt.GetState(ctx, "s", "value"); err != nil || string(v) != "100" {
					t.Fatalf("value = %s (%v), want 100: the expired call committed", v, err)
				}
				if c := rt.ConcurrencyStats().Commits; c != 0 {
					t.Fatalf("occ.commits = %d, want 0", c)
				}
			})
		}
	}
}
