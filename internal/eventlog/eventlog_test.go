package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

func testStore(t *testing.T) *kvstore.Store {
	t.Helper()
	st := kvstore.Open(kvstore.Config{})
	t.Cleanup(func() { st.Close() })
	return st
}

func testLog(t *testing.T, cfg Config) *Log {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatalf("new log: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

func appendN(t *testing.T, l *Log, object string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		_, err := l.Append(ctx, object, func(off int64) (json.RawMessage, error) {
			return json.RawMessage(fmt.Sprintf(`{"offset":%d}`, off)), nil
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendAssignsMonotoneOffsets(t *testing.T) {
	l := testLog(t, Config{})
	ctx := context.Background()
	for want := int64(1); want <= 5; want++ {
		var stamped int64
		got, err := l.Append(ctx, "obj", func(off int64) (json.RawMessage, error) {
			stamped = off
			return json.RawMessage(`{}`), nil
		})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if got != want || stamped != want {
			t.Fatalf("offset = %d (stamped %d), want %d", got, stamped, want)
		}
	}
	entries, err := l.Read(ctx, "obj", 0, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 5 {
		t.Fatalf("read %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Offset != int64(i+1) {
			t.Fatalf("entry %d offset = %d", i, e.Offset)
		}
	}
}

func TestReadFromOffsetAndBounds(t *testing.T) {
	l := testLog(t, Config{})
	ctx := context.Background()
	appendN(t, l, "obj", 10)
	entries, err := l.Read(ctx, "obj", 7, 2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 2 || entries[0].Offset != 7 || entries[1].Offset != 8 {
		t.Fatalf("read from 7 = %+v", entries)
	}
	if entries, err = l.Read(ctx, "obj", 11, 0); err != nil || len(entries) != 0 {
		t.Fatalf("read past end = %v, %v", entries, err)
	}
	first, next, err := l.Bounds(ctx, "obj")
	if err != nil || first != 1 || next != 11 {
		t.Fatalf("bounds = %d, %d, %v", first, next, err)
	}
}

func TestSizeCapEvictsOldestAndCompactsReads(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st, MaxPerObject: 4})
	ctx := context.Background()
	appendN(t, l, "obj", 10)
	first, next, err := l.Bounds(ctx, "obj")
	if err != nil || first != 7 || next != 11 {
		t.Fatalf("bounds = %d, %d, %v", first, next, err)
	}
	if _, err := l.Read(ctx, "obj", 3, 0); !errors.Is(err, ErrOffsetCompacted) {
		t.Fatalf("read below floor err = %v, want ErrOffsetCompacted", err)
	}
	entries, err := l.Read(ctx, "obj", 7, 0)
	if err != nil || len(entries) != 4 {
		t.Fatalf("read retained = %d entries, %v", len(entries), err)
	}
	// The sweep deletes the evicted backing keys.
	l.Compact(ctx)
	keys, err := st.List(ctx, "evlog/obj/")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(keys) != 4 {
		t.Fatalf("backing holds %d entry keys after sweep, want 4", len(keys))
	}
}

// TestEvictionBacklogSweepsEarly: once size-cap evictions have queued
// sweepBacklog backing keys, the sweep runs without waiting for its
// interval, so the store's backlog is bounded by count, not by the
// append rate times the interval.
func TestEvictionBacklogSweepsEarly(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st, MaxPerObject: 1, GCInterval: time.Hour})
	ctx := context.Background()
	payload := json.RawMessage(`{}`)
	if _, err := l.AppendBatch(ctx, "obj", sweepBacklog+1, func(int, int64) (json.RawMessage, error) {
		return payload, nil
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		keys, err := st.List(ctx, "evlog/obj/")
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(keys) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backing still holds %d entry keys; the backlog never started a sweep", len(keys))
		}
	}
}

func TestTTLSweepEvicts(t *testing.T) {
	clk := vclock.NewManual(time.Unix(1700000000, 0))
	st := testStore(t)
	l := testLog(t, Config{Backing: st, RetentionTTL: time.Minute, GCInterval: time.Hour, Clock: clk})
	appendN(t, l, "obj", 3)
	clk.Advance(2 * time.Minute)
	appendN(t, l, "obj", 2)
	l.Compact(context.Background())
	first, next, err := l.Bounds(context.Background(), "obj")
	if err != nil || first != 4 || next != 6 {
		t.Fatalf("bounds after sweep = %d, %d, %v", first, next, err)
	}
	if got := l.Stats().Compacted; got != 3 {
		t.Fatalf("compacted = %d, want 3", got)
	}
}

func TestAppendBatchIsOneBackingWrite(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st})
	ctx := context.Background()
	before := st.Stats().WriteOps
	first, err := l.AppendBatch(ctx, "obj", 16, func(i int, off int64) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"i":%d,"offset":%d}`, i, off)), nil
	})
	if err != nil || first != 1 {
		t.Fatalf("append batch = %d, %v", first, err)
	}
	if ops := st.Stats().WriteOps - before; ops != 1 {
		t.Fatalf("batch append cost %d write ops, want 1", ops)
	}
	entries, err := l.Read(ctx, "obj", 0, 0)
	if err != nil || len(entries) != 16 {
		t.Fatalf("read back %d entries, %v", len(entries), err)
	}
}

func TestLogSurvivesRestart(t *testing.T) {
	st := testStore(t)
	l1 := testLog(t, Config{Backing: st})
	ctx := context.Background()
	appendN(t, l1, "obj", 5)
	if err := l1.SetCursor(ctx, "named/hook", "obj", 3); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	l1.Close()

	l2 := testLog(t, Config{Backing: st})
	if err := l2.LoadCursors(ctx); err != nil {
		t.Fatalf("load cursors: %v", err)
	}
	entries, err := l2.Read(ctx, "obj", 1, 0)
	if err != nil || len(entries) != 5 {
		t.Fatalf("read after restart = %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if e.Offset != int64(i+1) {
			t.Fatalf("entry %d offset = %d after restart", i, e.Offset)
		}
	}
	if next, ok := l2.Cursor("named/hook", "obj"); !ok || next != 3 {
		t.Fatalf("cursor after restart = %d, %v", next, ok)
	}
	// New appends continue the sequence, no offset reuse.
	off, err := l2.Append(ctx, "obj", func(off int64) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	if err != nil || off != 6 {
		t.Fatalf("append after restart = %d, %v", off, err)
	}
}

func TestKillLosesOnlyWriteBehindCursorAdvances(t *testing.T) {
	st := testStore(t)
	l1 := testLog(t, Config{Backing: st, CursorFlushInterval: time.Hour})
	ctx := context.Background()
	appendN(t, l1, "obj", 5)
	// First write per cursor is write-through, later advances are not.
	if err := l1.SetCursor(ctx, "named/hook", "obj", 1); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	if err := l1.SetCursor(ctx, "named/hook", "obj", 5); err != nil {
		t.Fatalf("advance cursor: %v", err)
	}
	l1.Kill()

	l2 := testLog(t, Config{Backing: st})
	if err := l2.LoadCursors(ctx); err != nil {
		t.Fatalf("load cursors: %v", err)
	}
	next, ok := l2.Cursor("named/hook", "obj")
	if !ok {
		t.Fatal("cursor registration lost by kill; first write must be durable")
	}
	if next != 1 {
		t.Fatalf("cursor after kill = %d, want the write-through value 1", next)
	}
}

func TestCursorLag(t *testing.T) {
	l := testLog(t, Config{})
	ctx := context.Background()
	appendN(t, l, "a", 6)
	appendN(t, l, "b", 3)
	if err := l.SetCursor(ctx, "s", "a", 4); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	if err := l.SetCursor(ctx, "s", "b", 4); err != nil {
		t.Fatalf("set cursor: %v", err)
	}
	// a: next=7, cursor=4 -> 3 behind. b: next=4, cursor=4 -> caught up.
	if lag := l.CursorLag("s"); lag != 3 {
		t.Fatalf("lag = %d, want 3", lag)
	}
}

func TestNoteCreatedSkipsRecoveryProbe(t *testing.T) {
	st := testStore(t)
	ctx := context.Background()
	// Plant stale bounds from a dead prior incarnation: a probe-free
	// first append must ignore them and start the log at offset 1.
	stale, _ := json.Marshal(objMeta{First: 3, Next: 7})
	if _, err := st.Put(ctx, metaKey("obj"), stale); err != nil {
		t.Fatal(err)
	}
	l := testLog(t, Config{Backing: st})
	l.NoteCreated("obj")
	off, err := l.Append(ctx, "obj", func(off int64) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if off != 1 {
		t.Fatalf("first append offset = %d, want 1 (stale meta consulted)", off)
	}
}

func TestDropRemovesLogFromBacking(t *testing.T) {
	st := testStore(t)
	ctx := context.Background()
	l := testLog(t, Config{Backing: st})
	appendN(t, l, "obj", 3)
	if err := l.Drop(ctx, "obj"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if keys, err := st.List(ctx, "evlog/obj/"); err != nil || len(keys) != 0 {
		t.Fatalf("entry keys after drop = %v (err %v), want none", keys, err)
	}
	if _, err := st.Get(ctx, metaKey("obj")); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("meta after drop: err = %v, want ErrNotFound", err)
	}
	// A reopened log sees a pristine object: bounds [1,1) and a fresh
	// first offset, not the dead incarnation's.
	l2 := testLog(t, Config{Backing: st})
	first, next, err := l2.Bounds(ctx, "obj")
	if err != nil {
		t.Fatalf("bounds: %v", err)
	}
	if first != 1 || next != 1 {
		t.Fatalf("bounds after drop = [%d,%d), want [1,1)", first, next)
	}
	appendN(t, l2, "obj", 1)
	entries, err := l2.Read(ctx, "obj", 0, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 1 || entries[0].Offset != 1 {
		t.Fatalf("entries after drop+append = %+v, want one at offset 1", entries)
	}
}

// TestBoundsDocumentMatchesMarshal: the stored bounds document is
// exactly json.Marshal(objMeta)'s bytes, through appends, size-cap
// eviction and the sweep, so logs written by either encoder recover.
func TestBoundsDocumentMatchesMarshal(t *testing.T) {
	for _, m := range []objMeta{{0, 0}, {1, 1}, {-3, 9}, {1 << 62, 1<<63 - 1}, {-1 << 63, 0}} {
		want, _ := json.Marshal(m)
		if got := appendMeta([]byte("x"), m.First, m.Next); string(got) != "x"+string(want) {
			t.Fatalf("appendMeta(%d, %d) = %s, want x%s", m.First, m.Next, got, want)
		}
	}
	st := testStore(t)
	l := testLog(t, Config{Backing: st, MaxPerObject: 4, RetentionTTL: time.Hour})
	ctx := context.Background()
	check := func(first, next int64) {
		t.Helper()
		doc, err := st.Get(ctx, metaKey("obj"))
		if err != nil {
			t.Fatalf("meta: %v", err)
		}
		if want, _ := json.Marshal(objMeta{First: first, Next: next}); string(doc.Value) != string(want) {
			t.Fatalf("meta = %s, want %s", doc.Value, want)
		}
	}
	appendN(t, l, "obj", 3)
	check(1, 4)
	appendN(t, l, "obj", 7)
	check(7, 11)
}

// TestFailedAppendChangesNothing: a failed backing write or a failed
// build leaves the log as it was; the next append reuses the offsets
// and its entries read back intact.
func TestFailedAppendChangesNothing(t *testing.T) {
	st := testStore(t)
	l := testLog(t, Config{Backing: st})
	ctx := context.Background()
	appendN(t, l, "obj", 2)
	st.InjectWriteFailures(1, errors.New("injected"))
	if _, err := l.AppendBatch(ctx, "obj", 3, func(i int, off int64) (json.RawMessage, error) {
		return json.RawMessage(`"lost"`), nil
	}); err == nil {
		t.Fatal("append over a failing store succeeded")
	}
	if _, err := l.AppendBatch(ctx, "obj", 3, func(i int, off int64) (json.RawMessage, error) {
		if i == 1 {
			return nil, errors.New("build failed")
		}
		return json.RawMessage(`"lost"`), nil
	}); err == nil {
		t.Fatal("append with a failing build succeeded")
	}
	if first, next, err := l.Bounds(ctx, "obj"); err != nil || first != 1 || next != 3 {
		t.Fatalf("bounds after failed appends = [%d,%d) %v, want [1,3)", first, next, err)
	}
	appendN(t, l, "obj", 1)
	entries, err := l.Read(ctx, "obj", 0, 0)
	if err != nil || len(entries) != 3 {
		t.Fatalf("read back %d entries, %v; want 3", len(entries), err)
	}
	for i, e := range entries {
		if want := fmt.Sprintf(`{"offset":%d}`, i+1); e.Offset != int64(i+1) || string(e.Payload) != want {
			t.Fatalf("entry %d = %d %s, want %d %s", i, e.Offset, e.Payload, i+1, want)
		}
	}
}

// BenchmarkAppendBatch measures one durable AppendBatch of n entries
// against an in-memory backing store, at the default size cap's steady
// state (every append evicts, and a sweep every 2048 entries keeps the
// store's size fixed). It isolates the log's own cost: the
// payload is prebuilt, as the trigger bus's encoder would hand it over.
func BenchmarkAppendBatch(b *testing.B) {
	payload := json.RawMessage(`{"seq":1,"offset":1,"type":"stateChanged","class":"Counter","object":"ctr-1","function":"bump","keys":["count"],"time":"2026-10-18T01:02:03.456789Z"}`)
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			st := kvstore.Open(kvstore.Config{})
			defer st.Close()
			l, err := New(Config{Backing: st})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			ctx := context.Background()
			l.NoteCreated("ctr-1")
			build := func(int, int64) (json.RawMessage, error) { return payload, nil }
			for i := 0; i < 2048/n; i++ { // reach the size cap
				if _, err := l.AppendBatch(ctx, "ctr-1", n, build); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if _, err := l.AppendBatch(ctx, "ctr-1", n, build); err != nil {
					b.Fatal(err)
				}
				if i%(2048/n) == 0 {
					// Sweep the evicted entries out of the store, as the
					// background sweep would, so its size (and the cost
					// per append) does not grow with b.N. Every 2048
					// entries stays below sweepBacklog, so no background
					// sweep runs while the timer does.
					b.StopTimer()
					l.Compact(ctx)
					b.StartTimer()
				}
			}
		})
	}
}
