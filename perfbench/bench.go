package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/core"
	"github.com/hpcclab/oparaca-go/internal/gateway"
)

// callerHeader names the traced caller on a gateway request, so the
// serve-time wrapper can hand its timing back to that caller.
const callerHeader = "X-Bench-Caller"

// bench is one booted platform with a workload's objects on it.
type bench struct {
	w    *workload
	seed uint64
	p    *core.Platform
	ids  []string

	// Gateway side (http-spread only).
	srv        *http.Server
	client     *http.Client
	invokeURLs []string
	serve      *serveTimer

	callers []*caller
	// tracing is set for the traced phase of a --trace 1 run; the
	// handlers' clock reads it too.
	tracing atomic.Bool

	// checked counts the object checks made after the run.
	checked int64

	notesMu sync.Mutex
	notes   []string
}

// setup boots the platform, deploys the workload's package, creates
// its objects and warms them with one round of the workload's own
// operations. Everything it does is what setup_s times.
func setup(ctx context.Context, w *workload, seed uint64) (*bench, error) {
	b := &bench{w: w, seed: seed}
	cfg := w.config()
	// Each object's event log keeps its newest eventLogCap entries
	// (the platform default is 1024). The cap is sized so every log
	// fills within the first seconds of load: the run then measures
	// the platform at its steady memory footprint, and heap_mb does not
	// grow with the run's length or throughput.
	cfg.EventLogMaxPerObject = w.eventLogCap
	p, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("booting platform: %w", err)
	}
	b.p = p
	registerImages(p.Images(), &handlerClock{on: &b.tracing})
	if _, err := p.DeployYAML(ctx, []byte(w.pkg)); err != nil {
		b.close()
		return nil, fmt.Errorf("deploying %s: %w", w.name, err)
	}
	b.ids = make([]string, w.objects)
	for i := range b.ids {
		id, err := p.CreateObject(ctx, w.class, fmt.Sprintf("%s-%04d", w.class, i))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("creating object %d: %w", i, err)
		}
		b.ids[i] = id
	}
	if w.gateway {
		if err := b.startGateway(); err != nil {
			b.close()
			return nil, err
		}
	}
	for i := range callers {
		b.callers = append(b.callers, newCaller(b, i))
	}
	// Warm-up: every caller runs a fixed number of the workload's
	// operations (connections open, pools and maps grow, functions
	// serve their first calls). Their outputs are checked like any.
	b.runOps(ctx, w.warmup)
	p.Flush(ctx)
	return b, nil
}

func (b *bench) startGateway() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("gateway listener: %w", err)
	}
	b.serve = &serveTimer{next: gateway.New(b.p)}
	// The server settings are the daemon's.
	b.srv = &http.Server{Handler: b.serve, ReadHeaderTimeout: 5 * time.Second, WriteTimeout: 60 * time.Second}
	go func() { _ = b.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	b.invokeURLs = make([]string, len(b.ids))
	for i, id := range b.ids {
		b.invokeURLs[i] = base + "/api/objects/" + id + "/invoke/randomize"
	}
	// One keep-alive connection per caller.
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers,
		MaxConnsPerHost:     callers,
		IdleConnTimeout:     time.Minute,
	}}
	return nil
}

// serveTimer wraps the gateway and times Gateway.ServeHTTP for traced
// requests, handing each caller its request's serve time and handler
// self time.
type serveTimer struct {
	next    http.Handler
	serveNs [callers]atomic.Int64
	recs    [callers]callRec
}

func (s *serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.Header.Get(callerHeader))
	if err != nil || i < 0 || i >= callers {
		s.next.ServeHTTP(w, r)
		return
	}
	rec := &s.recs[i]
	rec.selfNs.Store(0)
	t0 := time.Now()
	s.next.ServeHTTP(w, r.WithContext(withCallRec(r.Context(), rec)))
	s.serveNs[i].Store(int64(time.Since(t0)))
}

func (b *bench) close() {
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = b.srv.Shutdown(ctx)
		cancel()
	}
	if b.p != nil {
		b.p.Close()
	}
}

func (b *bench) note(format string, args ...any) {
	b.notesMu.Lock()
	defer b.notesMu.Unlock()
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// runOps has every caller run n operations, outside any measured
// window.
func (b *bench) runOps(ctx context.Context, n int) {
	var wg sync.WaitGroup
	for _, c := range b.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.win, c.lat = window{}, latencies{}
			for range n {
				b.w.op(ctx, c)
			}
		}()
	}
	wg.Wait()
}

// runPhase runs the closed loop for d and returns the window it
// measured. Samples completing inside it are appended to the callers.
func (b *bench) runPhase(ctx context.Context, d time.Duration, traced bool) window {
	b.tracing.Store(traced)
	win := window{start: time.Now(), length: d}
	end := win.start.Add(d)
	var wg sync.WaitGroup
	for _, c := range b.callers {
		wg.Add(1)
		c.win, c.lat = win, newLatencies(win)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				b.w.op(ctx, c)
				// Yield between requests, as a caller waiting on its
				// network would. Two callers that never block keep both
				// CPUs busy, and the platform's background goroutines
				// (flushers, sweeps) then wait for the scheduler's 10ms
				// preemption while holding up commits: without the yield,
				// six interleaved seeds of sdk-wide-mix spread 18% in
				// throughput and 15% in p99; with it, 6% and 8%.
				goruntime.Gosched()
			}
		}()
	}
	wg.Wait()
	b.tracing.Store(false)
	return win
}

// latencies gathers every caller's latencies of the last phase.
func (b *bench) latencies() []latencies {
	var ls []latencies
	for _, c := range b.callers {
		ls = append(ls, c.lat)
	}
	return ls
}

func (b *bench) ackedTotals() []int64 {
	acked := make([]int64, len(b.ids))
	for _, c := range b.callers {
		for i, n := range c.acked {
			acked[i] += n
		}
	}
	return acked
}

// checkCounters compares a per-object counter read from the platform
// with the writes the callers were acknowledged; every object that
// disagrees is one failed check.
func (b *bench) checkCounters(ctx context.Context, read func(id string) (int64, error)) int64 {
	acked := b.ackedTotals()
	var failed int64
	b.checked += int64(len(b.ids))
	for i, id := range b.ids {
		got, err := read(id)
		if err != nil {
			b.note("reading %s: %v", id, err)
			failed++
			continue
		}
		if got != acked[i] {
			b.note("%s: platform counts %d writes, callers were acknowledged %d", id, got, acked[i])
			failed++
		}
	}
	return failed
}

func (b *bench) attempted() (attempted, failed int64) {
	for _, c := range b.callers {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// caller is one closed-loop client with its own seeded input stream.
type caller struct {
	b   *bench
	idx int
	rng *rand.Rand
	seq int64
	buf []byte
	// keyArgs holds one args map per wide key, built once.
	keyArgs []map[string]string

	win window
	lat latencies
	// spans keeps the traced spans for the dump; durs keeps every
	// traced span's duration by name.
	spans []span
	durs  [nSpanNames][]time.Duration

	attempted, failed int64
	// acked counts acknowledged writes per object index.
	acked []int64
}

func newCaller(b *bench, idx int) *caller {
	c := &caller{
		b:     b,
		idx:   idx,
		rng:   rand.New(rand.NewPCG(b.seed, uint64(idx)+1)),
		acked: make([]int64, len(b.ids)),
	}
	for _, k := range wideKeyNames {
		c.keyArgs = append(c.keyArgs, map[string]string{"key": k})
	}
	return c
}

func (c *caller) traced() bool { return c.b.tracing.Load() }

func (c *caller) fail(format string, args ...any) {
	c.failed++
	c.b.note(format, args...)
}

// record keeps one completed operation if it falls in the window.
func (c *caller) record(t0, t1 time.Time, write bool) { c.lat.add(c.win, t0, t1, write) }

// invoke is one in-process Platform.Invoke with its output check.
func (c *caller) invoke(ctx context.Context, obj int, member string, payload []byte, args map[string]string, check func([]byte) error, write bool) {
	if c.traced() {
		c.tracedInvoke(ctx, obj, member, payload, args, check, write, true)
		return
	}
	c.attempted++
	t0 := time.Now()
	out, err := c.b.p.Invoke(ctx, c.b.ids[obj], member, payload, args)
	t1 := time.Now()
	c.finish(obj, member, out, err, check, write, true, t0, t1)
}

// finish checks one in-process call's outcome and, if sampled, keeps
// its sample.
func (c *caller) finish(obj int, member string, out json.RawMessage, err error, check func([]byte) error, write, sampled bool, t0, t1 time.Time) bool {
	if err != nil {
		c.fail("Invoke(%s, %s): %v", c.b.ids[obj], member, err)
		return false
	}
	if err := check(out); err != nil {
		c.fail("Invoke(%s, %s): %v", c.b.ids[obj], member, err)
		return false
	}
	if write {
		c.acked[obj]++
	}
	if sampled {
		c.record(t0, t1, write)
	}
	return true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
