//go:build !race

package runtime

// The race detector adds allocations of its own (and drops pooled
// objects at random), so allocation pins only build without it.

import (
	"context"
	"testing"

	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/model"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// TestWarmInvokeAllocs pins the allocation count of a warm single-call
// Invoke, event sink wired, on a memory-only table (no flusher runs in
// the background). The bounds are the counts the separate per-call
// commit paths had before Invoke became a window of one; the window
// must not cost more.
func TestWarmInvokeAllocs(t *testing.T) {
	bounds := map[model.ConcurrencyMode]float64{
		model.ConcurrencyAdaptive: 13,
		model.ConcurrencyOCC:      13,
		model.ConcurrencyLocked:   18,
	}
	for mode, bound := range bounds {
		t.Run(string(mode), func(t *testing.T) {
			infra := testInfra(t)
			infra.EventsBatch = func([]trigger.Event) {}
			tmpl := stdTemplate()
			tmpl.TableMode = memtable.ModeMemoryOnly
			rt, err := New(infra, resolvedClass(t, eventsYAML(mode), "Counter"), tmpl)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			ctx := context.Background()
			for i := 0; i < 10; i++ {
				if _, err := rt.Invoke(ctx, "c-1", "incr", nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := rt.Invoke(ctx, "c-1", "incr", nil, nil); err != nil {
					t.Fatal(err)
				}
			})
			if got > bound {
				t.Fatalf("warm Invoke allocates %.1f/op, want <= %.0f", got, bound)
			}
		})
	}
}
