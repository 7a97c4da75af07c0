//go:build !race

package trigger

// The race detector adds allocations of its own (and drops pooled
// objects at random), so allocation pins only build without it.

import (
	"testing"

	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
)

// TestPublishBatchAllocs guards the durable append's allocations. One
// event published on a bus with a backed log, at its size cap and with
// no receivers, allocates six times: the exact-size payload, the entry
// and bounds keys, the evicted entry's key queued for the sweep, and
// the store's copies of the payload and the bounds document. The bound
// is that measured count.
func TestPublishBatchAllocs(t *testing.T) {
	st := kvstore.Open(kvstore.Config{})
	t.Cleanup(func() { st.Close() })
	l, err := eventlog.New(eventlog.Config{Backing: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	b := newBus(t, Config{Log: l})
	l.NoteCreated("o")
	evs, keys := make([]Event, 1), []string{"count"}
	publish := func() {
		evs[0] = Event{Type: StateChanged, Class: "A", Object: "o", Function: "bump", Keys: keys}
		b.PublishBatch(evs)
	}
	for i := 0; i < 2048; i++ { // fill the log to its size cap
		publish()
	}
	const bound = 6
	if n := testing.AllocsPerRun(1000, publish); n > bound {
		t.Fatalf("one-event PublishBatch allocates %.0f per call, want <= %d", n, bound)
	}
}
