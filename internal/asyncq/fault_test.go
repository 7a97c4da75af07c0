package asyncq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlerPanicMarksFailedAndPoolSurvives submits a panicking
// invocation and verifies the record turns failed while the worker
// keeps draining later submissions.
func TestHandlerPanicMarksFailedAndPoolSurvives(t *testing.T) {
	q := newQueue(t, Config{Workers: 1, InvokeBatch: perCall(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		if objectID == "bomb" {
			panic("kaboom")
		}
		return json.RawMessage(`"ok"`), nil
	})})
	ctx := context.Background()
	bombID, err := q.Submit(ctx, "bomb", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Wait(ctx, bombID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "kaboom") {
		t.Fatalf("panic record = %+v", rec)
	}
	// The single worker must still be alive to run this one.
	okID, err := q.Submit(ctx, "fine", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = q.Wait(ctx, okID)
	if err != nil || rec.Status != StatusCompleted {
		t.Fatalf("post-panic record = %v %+v", err, rec)
	}
	if s := q.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestQueueOverflowReturnsBackpressure fills the queue past capacity
// while the single worker is blocked and expects ErrQueueFull.
func TestQueueOverflowReturnsBackpressure(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(t, Config{Workers: 1, Shards: 1, Capacity: 4, InvokeBatch: perCall(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		<-release
		return nil, nil
	})})
	defer close(release)
	ctx := context.Background()
	// One task occupies the worker; Capacity more fill the shard. The
	// first submissions may race the dequeue, so keep submitting until
	// the queue pushes back.
	var sawFull bool
	for i := 0; i < 16 && !sawFull; i++ {
		_, err := q.Submit(ctx, "obj", "m", nil, nil)
		switch {
		case err == nil:
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never returned ErrQueueFull")
	}
	if s := q.Stats(); s.Rejected == 0 {
		t.Fatalf("rejected counter = %+v", s)
	}
}

// TestQueuedInvocationObservesCancellation cancels a submission while
// it is still queued behind a blocked worker: it must fail with the
// context error without the handler ever running.
func TestQueuedInvocationObservesCancellation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var ranMu sync.Mutex
	ran := make(map[string]bool)
	// The batched drain publishes a cancelled-while-queued failure as
	// soon as the pull is recorded — possibly while an earlier task of
	// the same pull is still executing — so the map needs a lock even
	// with a single worker.
	q := newQueue(t, Config{Workers: 1, Shards: 1, Capacity: 8, InvokeBatch: perCall(func(_ context.Context, objectID, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		ranMu.Lock()
		ran[objectID] = true
		ranMu.Unlock()
		if objectID == "blocker" {
			close(started)
		}
		<-release
		return nil, nil
	})})
	ctx := context.Background()
	if _, err := q.Submit(ctx, "blocker", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Submit the victim only once the blocker is executing, so it can
	// never ride the blocker's drain pull (a pull snapshots each task's
	// cancellation state at dequeue, before this cancel lands).
	<-started
	cctx, cancel := context.WithCancel(ctx)
	victimID, err := q.Submit(cctx, "victim", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	rec, err := q.Wait(ctx, victimID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled record = %+v", rec)
	}
	if ran["victim"] {
		t.Fatal("cancelled invocation still executed")
	}
}

// TestInFlightInvocationObservesCancellation verifies a running
// handler sees its submitter's cancellation through the task context.
func TestInFlightInvocationObservesCancellation(t *testing.T) {
	started := make(chan struct{})
	q := newQueue(t, Config{Workers: 1, InvokeBatch: perCall(func(ctx context.Context, _, _ string, _ json.RawMessage, _ map[string]string) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})})
	cctx, cancel := context.WithCancel(context.Background())
	id, err := q.Submit(cctx, "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	rec, err := q.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("in-flight cancel record = %+v", rec)
	}
}

// TestCloseDrainsAcceptedRecords accepts a burst of slow tasks, closes
// the queue, and verifies every accepted invocation reached a terminal
// record — none lost.
func TestCloseDrainsAcceptedRecords(t *testing.T) {
	q, err := New(Config{Workers: 2, Capacity: 64, InvokeBatch: perCall(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		time.Sleep(2 * time.Millisecond)
		return json.RawMessage(`"done"`), nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		id, err := q.Submit(ctx, fmt.Sprintf("o%d", i), "m", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q.Close() // blocks until drained
	if s := q.Stats(); s.Completed != int64(len(ids)) || s.Depth != 0 {
		t.Fatalf("post-close stats = %+v", s)
	}
	// Records stay readable after Close for late pollers? The table is
	// closed with the queue; the contract is that all records reached
	// terminal state before shutdown, which the counters above prove.
}

// TestWaitHonorsContextDeadline ensures Wait unblocks on a context
// timeout while the invocation is still parked.
func TestWaitHonorsContextDeadline(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(t, Config{Workers: 1, InvokeBatch: perCall(func(context.Context, string, string, json.RawMessage, map[string]string) (json.RawMessage, error) {
		<-release
		return nil, nil
	})})
	defer close(release)
	id, err := q.Submit(context.Background(), "o", "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
