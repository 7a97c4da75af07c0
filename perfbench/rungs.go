package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/faas"
	"github.com/hpcclab/oparaca-go/internal/invoker"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
)

// Layer rungs: one layer's public function called alone in a tight
// loop on its own fixture, in ns per call. A traced run reports them
// next to the workload's per-layer figures so a change to one layer can
// be seen in isolation. Each rung is timed rungReps times and the
// median is reported.
const (
	rungReps  = 5
	rungIters = 20_000
)

type rungs struct {
	load1, load8, cas1, faasInvoke, elogAppend float64
}

func runRungs(ctx context.Context) rungs {
	var r rungs
	var err error
	if r.load1, r.load8, r.cas1, err = memtableRungs(ctx); err != nil {
		fmt.Println("rung memtable:", err)
	}
	if r.faasInvoke, err = faasRung(ctx); err != nil {
		fmt.Println("rung faas:", err)
	}
	if r.elogAppend, err = eventlogRung(ctx); err != nil {
		fmt.Println("rung eventlog:", err)
	}
	fmt.Printf("rungs (ns/op, median of %d x %d): memtable.load1 %.0f memtable.load8 %.0f memtable.cas1 %.0f faas.invoke %.0f eventlog.append %.0f\n",
		rungReps, rungIters, r.load1, r.load8, r.cas1, r.faasInvoke, r.elogAppend)
	return r
}

// timeRung returns the median ns per call of fn over rungReps timed
// loops of rungIters calls.
func timeRung(fn func(i int) error) (float64, error) {
	var per []float64
	for range rungReps {
		t0 := time.Now()
		for i := range rungIters {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/rungIters)
	}
	return medianF(per), nil
}

// memtableRungs time GetManyVersionedInto of one key and of one
// object's 8 keys, and a one-key PutManyIfVersion, on a write-behind
// table holding sdk-wide-mix's 4096 x 8 keys.
func memtableRungs(ctx context.Context) (load1, load8, cas1 float64, err error) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	tbl, err := memtable.New(memtable.Config{Mode: memtable.ModeWriteBehind, Backing: db,
		FlushInterval: 20 * time.Millisecond, FlushBatchSize: 256})
	if err != nil {
		return 0, 0, 0, err
	}
	defer tbl.Close()
	const objects = 4096
	keys := make([][]string, objects)
	val := json.RawMessage(`{"w":0,"v":0}`)
	for o := range keys {
		entries := make(map[string]json.RawMessage, wideKeys)
		for _, k := range wideKeyNames {
			key := fmt.Sprintf("state/Wide/Wide-%04d/%s", o, k)
			keys[o] = append(keys[o], key)
			entries[key] = val
		}
		if err := tbl.PutMany(ctx, entries); err != nil {
			return 0, 0, 0, err
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	order := make([]int, rungIters)
	for i := range order {
		order[i] = rng.IntN(objects)
	}
	out := make(map[string]memtable.VersionedValue, wideKeys)
	load8, err = timeRung(func(i int) error {
		clear(out)
		return tbl.GetManyVersionedInto(ctx, keys[order[i]], out)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	ops := make(map[string]memtable.CASOp, 1)
	cas1, err = timeRung(func(i int) error {
		key := keys[order[i]][i%wideKeys]
		clear(out)
		if err := tbl.GetManyVersionedInto(ctx, []string{key}, out); err != nil {
			return err
		}
		clear(ops)
		ops[key] = memtable.CASOp{Expect: out[key].Version, Value: val, Write: true}
		return tbl.PutManyIfVersion(ctx, ops)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// The CAS rung reads the key's version first; load1 is that read
	// alone, and is taken off.
	load1, err = timeRung(func(i int) error {
		clear(out)
		return tbl.GetManyVersionedInto(ctx, keys[order[i]][i%wideKeys:i%wideKeys+1], out)
	})
	return load1, load8, cas1 - load1, err
}

// faasRung times Engine.Invoke of a no-op handler on the local
// transport, deployment mode, with a compute budget that never binds.
func faasRung(ctx context.Context) (float64, error) {
	cl := cluster.New(cluster.Config{OpsPerMilliCPU: 1e6})
	if _, err := cl.AddNode("vm-00", cluster.Resources{MilliCPU: 4000, MemoryMB: 8192}); err != nil {
		return 0, err
	}
	reg := invoker.NewRegistry()
	reg.Register("img/noop", invoker.HandlerFunc(func(context.Context, invoker.Task) (invoker.Result, error) {
		return invoker.Result{}, nil
	}))
	eng, err := faas.NewEngine(faas.Config{Mode: faas.ModeDeployment, Cluster: cl, Transport: invoker.NewLocal(reg)})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if err := eng.Deploy(faas.FunctionSpec{Name: "noop", Image: "img/noop", InitialScale: 1, MaxScale: 1, Concurrency: 4}); err != nil {
		return 0, err
	}
	task := invoker.Task{ID: "t", Class: "C", Object: "o", Function: "noop"}
	return timeRung(func(int) error {
		_, err := eng.Invoke(ctx, "noop", task)
		return err
	})
}

// eventlogRung times one durable Append (write-through to an in-memory
// document store) spread over 256 objects' logs.
func eventlogRung(ctx context.Context) (float64, error) {
	db := kvstore.Open(kvstore.Config{})
	defer db.Close()
	l, err := eventlog.New(eventlog.Config{Backing: db})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	const objects = 256
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("Order-%04d", i)
		l.NoteCreated(names[i])
	}
	payload := json.RawMessage(`{"type":"stateChanged","class":"Order","object":"Order-0000","function":"place","keys":["placed","status"]}`)
	build := func(int64) (json.RawMessage, error) { return payload, nil }
	return timeRung(func(i int) error {
		_, err := l.Append(ctx, names[i%objects], build)
		return err
	})
}
