package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// The benchmark's function images. Each follows the pure-function
// contract (reads from the task, writes in the result) and returns
// what the caller needs to check the call was served correctly. In a
// traced run the caller-driven handlers also time themselves and
// charge the time to the callRec riding their context.

// callRec carries one traced call's handler self time from the handler
// back to the caller that timed the whole call.
type callRec struct{ selfNs atomic.Int64 }

type callRecKey struct{}

func withCallRec(ctx context.Context, r *callRec) context.Context {
	return context.WithValue(ctx, callRecKey{}, r)
}

// handlerClock times handler bodies while on is set.
type handlerClock struct{ on *atomic.Bool }

func (h *handlerClock) start() time.Time {
	if !h.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (h *handlerClock) stop(ctx context.Context, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	if r, ok := ctx.Value(callRecKey{}).(*callRec); ok {
		r.selfNs.Add(int64(time.Since(t0)))
	}
}

// xorshift is the randomization app's generator: the §V evaluation
// function replaces a JSON document with a randomized one. Seeding it
// from the request payload makes every response checkable by the
// caller.
func xorshift(seed uint64) func() uint64 {
	seed |= 1
	return func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
}

// doc is the http-spread object's single JSON state key. Writes counts
// the committed randomizations of the object.
type doc struct {
	Seq    uint64  `json:"seq"`
	Score  float64 `json:"score"`
	Flag   bool    `json:"flag"`
	Writes int64   `json:"writes"`
}

// randomDoc derives the randomized document for one request seed.
func randomDoc(seed uint64) doc {
	next := xorshift(seed)
	return doc{Seq: next() % 1_000_000, Score: float64(next()%10_000) / 100, Flag: next()%2 == 0}
}

// seedPayload is the randomize and place request body.
type seedPayload struct {
	Seed uint64 `json:"seed"`
}

// slot is one sdk-wide-mix state key: W counts committed writes of the
// key, V is the last written value.
type slot struct {
	W int64  `json:"w"`
	V uint64 `json:"v"`
}

// auditResult is the audit handler's output, kept in its async record
// so a traced run can split the event lag at the queue boundary.
type auditResult struct {
	Offset  int64 `json:"offset"`
	EventNs int64 `json:"eventNs"`
	StartNs int64 `json:"startNs"`
}

func registerImages(reg *invoker.Registry, hc *handlerClock) {
	// img/randomize is the §V JSON-randomization app: it replaces the
	// object's doc with one derived from the payload seed and counts
	// the write in the doc itself.
	reg.Register("img/randomize", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		t0 := hc.start()
		var in seedPayload
		if err := json.Unmarshal(task.Payload, &in); err != nil {
			return invoker.Result{}, fmt.Errorf("randomize: bad payload: %w", err)
		}
		var cur doc
		if raw, ok := task.State["doc"]; ok {
			if err := json.Unmarshal(raw, &cur); err != nil {
				return invoker.Result{}, fmt.Errorf("randomize: bad doc: %w", err)
			}
		}
		next := randomDoc(in.Seed)
		next.Writes = cur.Writes + 1
		raw, err := json.Marshal(next)
		if err != nil {
			return invoker.Result{}, err
		}
		hc.stop(ctx, t0)
		return invoker.Result{Output: raw, State: map[string]json.RawMessage{"doc": raw}}, nil
	}))
	// img/read-all is sdk-wide-mix's readonly method: it returns all
	// eight keys in key order.
	reg.Register("img/read-all", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		t0 := hc.start()
		out := make([]byte, 0, 256)
		out = append(out, '[')
		for i := range wideKeys {
			if i > 0 {
				out = append(out, ',')
			}
			v, ok := task.State[wideKeyNames[i]]
			if !ok {
				return invoker.Result{}, fmt.Errorf("read-all: key %s missing", wideKeyNames[i])
			}
			out = append(out, v...)
		}
		out = append(out, ']')
		hc.stop(ctx, t0)
		return invoker.Result{Output: out}, nil
	}))
	// img/write-key writes the payload value into the key named by
	// args["key"] and counts the write in that key.
	reg.Register("img/write-key", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		t0 := hc.start()
		key := task.Args["key"]
		var in seedPayload
		if err := json.Unmarshal(task.Payload, &in); err != nil {
			return invoker.Result{}, fmt.Errorf("write-key: bad payload: %w", err)
		}
		var cur slot
		raw, ok := task.State[key]
		if !ok {
			return invoker.Result{}, fmt.Errorf("write-key: key %q missing", key)
		}
		if err := json.Unmarshal(raw, &cur); err != nil {
			return invoker.Result{}, fmt.Errorf("write-key: bad slot: %w", err)
		}
		out, err := json.Marshal(slot{W: cur.W + 1, V: in.Seed})
		if err != nil {
			return invoker.Result{}, err
		}
		hc.stop(ctx, t0)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{key: out}}, nil
	}))
	// img/bump is hot-object's read-modify-write counter.
	reg.Register("img/bump", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		t0 := hc.start()
		var n int64
		if raw, ok := task.State["count"]; ok {
			if err := json.Unmarshal(raw, &n); err != nil {
				return invoker.Result{}, fmt.Errorf("bump: bad count: %w", err)
			}
		}
		out := strconv.AppendInt(nil, n+1, 10)
		hc.stop(ctx, t0)
		return invoker.Result{Output: out, State: map[string]json.RawMessage{"count": out}}, nil
	}))
	// img/place sets an Order's status to the placed order number and
	// counts the placement; the status write fires the audit trigger.
	reg.Register("img/place", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		t0 := hc.start()
		var in seedPayload
		if err := json.Unmarshal(task.Payload, &in); err != nil {
			return invoker.Result{}, fmt.Errorf("place: bad payload: %w", err)
		}
		var placed int64
		if raw, ok := task.State["placed"]; ok {
			if err := json.Unmarshal(raw, &placed); err != nil {
				return invoker.Result{}, fmt.Errorf("place: bad placed: %w", err)
			}
		}
		status := strconv.AppendUint(nil, in.Seed, 10)
		hc.stop(ctx, t0)
		return invoker.Result{Output: status, State: map[string]json.RawMessage{
			"status": status,
			"placed": strconv.AppendInt(nil, placed+1, 10),
		}}, nil
	}))
	// img/audit runs once per committed status write, delivered by the
	// class trigger through the async queue. It counts the audit in the
	// object's state and reports the source commit it saw, with the
	// commit and handler-start instants, in its async record.
	reg.Register("img/audit", invoker.HandlerFunc(func(ctx context.Context, task invoker.Task) (invoker.Result, error) {
		started := time.Now()
		var ev trigger.Event
		if err := json.Unmarshal(task.Payload, &ev); err != nil {
			return invoker.Result{}, fmt.Errorf("audit: bad event: %w", err)
		}
		if ev.Function != "place" || ev.Object != task.Object {
			return invoker.Result{}, fmt.Errorf("audit: unexpected event %s.%s on %s", ev.Object, ev.Function, task.Object)
		}
		var audited int64
		if raw, ok := task.State["audited"]; ok {
			if err := json.Unmarshal(raw, &audited); err != nil {
				return invoker.Result{}, fmt.Errorf("audit: bad audited: %w", err)
			}
		}
		out, err := json.Marshal(auditResult{Offset: ev.Offset, EventNs: ev.Time.UnixNano(), StartNs: started.UnixNano()})
		if err != nil {
			return invoker.Result{}, err
		}
		return invoker.Result{Output: out, State: map[string]json.RawMessage{
			"audited": strconv.AppendInt(nil, audited+1, 10),
		}}, nil
	}))
}
