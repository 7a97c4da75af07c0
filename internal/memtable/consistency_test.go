package memtable

// Tests for the properties that follow from the table's single
// placement, lock order and read/write paths: multi-key reads see one
// snapshot, memory and backing store never disagree after concurrent
// writes, a failed write changes nothing, keys spread evenly, and the
// warm paths stay allocation-lean.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestMultiKeyReadSeesOneSnapshot: a writer commits one value to four
// keys at once, over and over, while readers fetch all four. Every
// read must see the keys equal — the read locks the keys' whole shard
// set, so it cannot interleave with a commit that spans the same
// shards.
func TestMultiKeyReadSeesOneSnapshot(t *testing.T) {
	tbl, err := New(Config{Mode: ModeMemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	keys := []string{"snap/a", "snap/b", "snap/c", "snap/d"}
	shards := map[int]bool{}
	for _, k := range keys {
		shards[tbl.shardIndex(k)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("keys %v share one shard; the test needs a multi-shard read", keys)
	}
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		ops := make(map[string]CASOp, len(keys))
		for n := 0; n < 100000; n++ {
			v := json.RawMessage(strconv.Itoa(n))
			for _, k := range keys {
				ops[k] = CASOp{Expect: AnyVersion, Value: v, Write: true}
			}
			if err := tbl.PutManyIfVersion(ctx, ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var reads, torn atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make(map[string]json.RawMessage, len(keys))
			vout := make(map[string]VersionedValue, len(keys))
			for !stop.Load() {
				clear(out)
				clear(vout)
				if err := tbl.GetManyInto(ctx, keys, out); err != nil {
					t.Error(err)
					return
				}
				if err := tbl.GetManyVersionedInto(ctx, keys, vout); err != nil {
					t.Error(err)
					return
				}
				reads.Add(2)
				for _, k := range keys[1:] {
					if string(out[k]) != string(out[keys[0]]) ||
						string(vout[k].Value) != string(vout[keys[0]].Value) {
						torn.Add(1)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d multi-key reads saw a torn snapshot", n, reads.Load())
	}
}

// TestWriteThroughConcurrentPutsAgreeWithStore: concurrent Puts of one
// key on a write-through table must leave memory and the backing store
// holding the same value. Each Put writes the store under the key's
// shard lock, before memory changes, so no two Puts can land in
// opposite orders in the two places.
func TestWriteThroughConcurrentPutsAgreeWithStore(t *testing.T) {
	const keys, writers = 20000, 4
	tbl, db := newBacked(t, ModeWriteThrough)
	ctx := context.Background()
	for i := 0; i < keys; i++ {
		k := "wt/" + strconv.Itoa(i)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tbl.Put(ctx, k, json.RawMessage(strconv.Itoa(w))); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	diverged := 0
	for i := 0; i < keys; i++ {
		k := "wt/" + strconv.Itoa(i)
		mem, err := tbl.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := db.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if string(mem) != string(doc.Value) {
			diverged++
		}
	}
	if diverged != 0 {
		t.Fatalf("table and store disagree on %d of %d keys", diverged, keys)
	}
}

// TestFailedDeleteLeavesKeyReadable: a Delete whose backing delete
// fails must change nothing — the key stays readable in the table and
// in the store, and a retry then removes it from both.
func TestFailedDeleteLeavesKeyReadable(t *testing.T) {
	for _, mode := range []Mode{ModeWriteThrough, ModeWriteBehind} {
		t.Run(mode.String(), func(t *testing.T) {
			tbl, db := newBacked(t, mode)
			ctx := context.Background()
			if err := tbl.Put(ctx, "k", json.RawMessage(`"v"`)); err != nil {
				t.Fatal(err)
			}
			tbl.Flush(ctx)
			outage := errors.New("store outage")
			db.InjectWriteFailures(1, outage)
			if err := tbl.Delete(ctx, "k"); !errors.Is(err, outage) {
				t.Fatalf("Delete during outage = %v, want %v", err, outage)
			}
			if v, err := tbl.Get(ctx, "k"); err != nil || string(v) != `"v"` {
				t.Fatalf("table after failed Delete = %s (%v), want \"v\"", v, err)
			}
			if doc, err := db.Get(ctx, "k"); err != nil || string(doc.Value) != `"v"` {
				t.Fatalf("store after failed Delete = %s (%v), want \"v\"", doc.Value, err)
			}
			if err := tbl.Delete(ctx, "k"); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("table after Delete: err = %v, want ErrNotFound", err)
			}
			if _, err := db.Get(ctx, "k"); !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("store after Delete: err = %v, want not found", err)
			}
		})
	}
}

// TestPutEmptyValueIsNotDelete: a nil Value deletes inside a CAS
// commit, but Put of an empty value (an empty body through the
// gateway's state API) is still a put.
func TestPutEmptyValueIsNotDelete(t *testing.T) {
	for _, mode := range []Mode{ModeMemoryOnly, ModeWriteThrough, ModeWriteBehind} {
		t.Run(mode.String(), func(t *testing.T) {
			tbl, _ := newVersionedTable(t, mode)
			ctx := context.Background()
			for _, v := range []json.RawMessage{nil, {}} {
				if err := tbl.Put(ctx, "k", v); err != nil {
					t.Fatal(err)
				}
				if got, err := tbl.Get(ctx, "k"); err != nil || len(got) != 0 {
					t.Fatalf("Get after Put(%q) = %q (%v), want empty value", v, got, err)
				}
				got, err := tbl.GetMany(ctx, []string{"k"})
				if _, ok := got["k"]; err != nil || !ok {
					t.Fatalf("GetMany after Put(%q) = %v (%v), want k present", v, got, err)
				}
			}
		})
	}
}

// TestShardBalance: runtime state keys (state/<Class>/<obj>/<key>)
// spread evenly over the shards — 4096 objects of 8 keys leave every
// one of 16 shards within 10% of the mean.
func TestShardBalance(t *testing.T) {
	tbl, err := New(Config{Mode: ModeMemoryOnly, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	counts := make([]int, len(tbl.shards))
	n := 0
	for obj := 0; obj < 4096; obj++ {
		for key := 0; key < 8; key++ {
			counts[tbl.shardIndex(fmt.Sprintf("state/Bench/obj-%04d/k%d", obj, key))]++
			n++
		}
	}
	mean := float64(n) / float64(len(counts))
	for i, c := range counts {
		if dev := (float64(c) - mean) / mean; dev > 0.10 || dev < -0.10 {
			t.Fatalf("shard %d holds %d keys, %.1f%% off the mean %.0f (counts %v)", i, c, 100*dev, mean, counts)
		}
	}
}

// TestWarmOpAllocs pins the allocation counts of the warm single-key
// and 8-key operations on a memory-only table. A Put clones its value
// (one allocation); reads alias table memory and a Delete of a
// tombstoned key touches only existing map entries.
func TestWarmOpAllocs(t *testing.T) {
	tbl, err := New(Config{Mode: ModeMemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	ctx := context.Background()
	val := json.RawMessage(`{"n":1}`)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("state/Bench/obj-0001/k%d", i)
		if err := tbl.Put(ctx, keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]json.RawMessage, len(keys))
	vout := make(map[string]VersionedValue, len(keys))
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Put", 1, func() { _ = tbl.Put(ctx, keys[0], val) }},
		{"Get", 0, func() { _, _ = tbl.Get(ctx, keys[0]) }},
		{"Delete", 0, func() { _ = tbl.Delete(ctx, "gone") }},
		{"GetManyInto/8", 0, func() { _ = tbl.GetManyInto(ctx, keys, out) }},
		{"GetManyVersionedInto/8", 0, func() { _ = tbl.GetManyVersionedInto(ctx, keys, vout) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocs/op, want at most %.0f", c.name, got, c.max)
		}
	}
}
