package main

import (
	"context"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"syscall"
	"time"

	"github.com/hpcclab/oparaca-go/internal/asyncq"
	"github.com/hpcclab/oparaca-go/internal/eventlog"
	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/memtable"
	"github.com/hpcclab/oparaca-go/internal/runtime"
	"github.com/hpcclab/oparaca-go/internal/trigger"
)

// The traced run. The program has no spans of its own for these
// boundaries, so the benchmark records them from outside: it times its
// calls into each layer's public entry points, its handlers time
// themselves, the async records supply the queue's transition instants,
// and each layer's Stats() counters are read before and after the
// traced window. Spans are kept in memory and written out at the end.

// spanName identifies a recorded boundary.
type spanName uint8

const (
	spanNone      spanName = iota
	spanRTT                // client.rtt: HTTP request sent to reply read
	spanServe              // gateway.serve: Gateway.ServeHTTP
	spanTransport          // gateway.transport: rtt minus serve (derived)
	spanInvoke             // platform.invoke: Platform.Invoke
	spanHandler            // handler: the benchmark handler's own body
	spanOverhead           // platform.overhead: invoke minus handler (derived)
	spanAsync              // async.call: InvokeAsync to record Finished
	spanSubmit             // asyncq.submit: the InvokeAsync call
	spanQueueWait          // asyncq.queue_wait: record Enqueued to Started
	spanExec               // asyncq.exec: record Started to Finished
	spanDispatch           // trigger.dispatch: source commit to audit Enqueued
	spanAuditWait          // audit.queue_wait: audit Enqueued to Started
	spanEventLag           // event.lag: source commit to audit handler start
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"", "client.rtt", "gateway.serve", "gateway.transport", "platform.invoke", "handler",
	"platform.overhead", "async.call", "asyncq.submit", "asyncq.queue_wait", "asyncq.exec",
	"trigger.dispatch", "audit.queue_wait", "event.lag",
}

// span is one recorded interval. Spans of one request share req;
// parent names the enclosing boundary.
type span struct {
	req    int64
	name   spanName
	parent spanName
	start  time.Duration // since the traced window's start
	dur    time.Duration
}

func (c *caller) nextReq() int64 { return int64(c.idx)<<48 | c.seq }

// addSpan records one span's duration for the per-layer figures, and
// the span itself while the caller's share of the dump has room.
func (c *caller) addSpan(req int64, name, parent spanName, start time.Time, dur time.Duration) {
	c.durs[name] = append(c.durs[name], dur)
	if len(c.spans) < maxDumpSpans/callers {
		c.spans = append(c.spans, span{req: req, name: name, parent: parent, start: start.Sub(c.win.start), dur: dur})
	}
}

// tracedInvoke is invoke with the handler's self time split out.
// sampled is false for http-spread's in-process comparison calls,
// which stay out of the throughput and latency samples.
func (c *caller) tracedInvoke(ctx context.Context, obj int, member string, payload []byte, args map[string]string, check func([]byte) error, write, sampled bool) {
	rec := &callRec{}
	c.attempted++
	t0 := time.Now()
	out, err := c.b.p.Invoke(withCallRec(ctx, rec), c.b.ids[obj], member, payload, args)
	t1 := time.Now()
	if !c.finish(obj, member, out, err, check, write, sampled, t0, t1) {
		return
	}
	req := c.nextReq()
	dur, self := t1.Sub(t0), time.Duration(rec.selfNs.Load())
	c.addSpan(req, spanInvoke, spanNone, t0, dur)
	c.addSpan(req, spanHandler, spanInvoke, t0, self)
	c.addSpan(req, spanOverhead, spanInvoke, t0, dur-self)
}

// traceHTTP records one gateway request's spans.
func (c *caller) traceHTTP(t0, t1 time.Time) {
	rtt := t1.Sub(t0)
	serve := time.Duration(c.b.serve.serveNs[c.idx].Swap(0))
	self := time.Duration(c.b.serve.recs[c.idx].selfNs.Load())
	req := c.nextReq()
	c.addSpan(req, spanRTT, spanNone, t0, rtt)
	c.addSpan(req, spanServe, spanRTT, t0, serve)
	c.addSpan(req, spanTransport, spanRTT, t0, rtt-serve)
	c.addSpan(req, spanHandler, spanServe, t0, self)
}

// traceAsync records one place invocation's spans from its record.
func (c *caller) traceAsync(t0, t1 time.Time, rec asyncq.Record) {
	req := c.nextReq()
	c.addSpan(req, spanAsync, spanNone, t0, rec.Finished.Sub(t0))
	c.addSpan(req, spanSubmit, spanAsync, t0, t1.Sub(t0))
	c.addSpan(req, spanQueueWait, spanAsync, rec.Enqueued, rec.Started.Sub(rec.Enqueued))
	c.addSpan(req, spanExec, spanAsync, rec.Started, rec.Finished.Sub(rec.Started))
}

// counters is a snapshot of every layer's Stats() plus the process's.
type counters struct {
	at   time.Time
	conc runtime.ConcurrencyStats
	mem  memtable.Stats
	kv   kvstore.Stats
	elog eventlog.Stats
	trig trigger.Stats
	q    asyncq.Stats
	cpu  time.Duration
	ms   goruntime.MemStats
}

func snapshot(b *bench) counters {
	c := counters{at: time.Now()}
	st := b.p.Stats()
	for _, cs := range st.Concurrency {
		c.conc.Commits += cs.Commits
		c.conc.Aborts += cs.Aborts
		c.conc.Retries += cs.Retries
		c.conc.Fallbacks += cs.Fallbacks
		c.conc.Readonly += cs.Readonly
	}
	for _, class := range st.Classes {
		rt, err := b.p.Runtime(class)
		if err != nil {
			continue
		}
		ts := rt.Table().Stats()
		c.mem.Hits += ts.Hits
		c.mem.Misses += ts.Misses
		c.mem.Flushes += ts.Flushes
		c.mem.FlushDocs += ts.FlushDocs
	}
	c.kv = st.DB
	c.elog = b.p.EventLog().Stats()
	c.trig = st.Triggers
	c.q = st.Async
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	goruntime.ReadMemStats(&c.ms)
	return c
}

func cursorLag(t trigger.Stats) int64 {
	var lag int64
	for _, s := range t.Subscriptions {
		lag += s.CursorLag
	}
	return lag
}

// tracedRun measures the per-layer metrics. The first half of the run
// is untraced and only gives the reference throughput; the second half
// is traced. Their ratio is the tracing overhead.
func tracedRun(ctx context.Context, b *bench, d time.Duration, outDir string, env map[string]any) []metric {
	ref := summarize(b.runPhase(ctx, d/2, false), b.latencies())
	before := snapshot(b)
	win := b.runPhase(ctx, d-d/2, true)
	after := snapshot(b)
	s := summarize(win, b.latencies())

	var byName [nSpanNames][]time.Duration
	var spans []span
	for _, c := range b.callers {
		for n, d := range c.durs {
			byName[n] = append(byName[n], d...)
		}
		spans = append(spans, c.spans...)
	}
	audits := collectAudits(ctx, b, win)
	for _, sp := range audits {
		byName[sp.name] = append(byName[sp.name], sp.dur)
	}
	spans = append(spans, audits[:min(len(audits), maxDumpSpans)]...)
	p50 := func(n spanName) time.Duration { return quantile(byName[n], 0.50) }
	p99 := func(n spanName) time.Duration { return quantile(byName[n], 0.99) }
	for n := spanRTT; n < nSpanNames; n++ {
		if k := len(byName[n]); k > 0 {
			fmt.Printf("span %-18s n=%-8d p50 %9.2fus p99 %9.2fus\n", spanNames[n], k, us(p50(n)), us(p99(n)))
		}
	}

	ops := float64(s.samples)
	perKop := func(n int64) float64 { return float64(n) / ops * 1000 }
	secs := after.at.Sub(before.at).Seconds()
	commits := float64(after.conc.Commits - before.conc.Commits)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := after.mem.Hits-before.mem.Hits, after.mem.Misses-before.mem.Misses
	flushes := after.mem.Flushes - before.mem.Flushes
	completed := float64(after.q.Completed - before.q.Completed)
	coalesced := float64(after.q.Coalesced - before.q.Coalesced)
	rejected := (after.q.Rejected + after.q.QuotaRejected) - (before.q.Rejected + before.q.QuotaRejected)
	readonly := float64(after.conc.Readonly - before.conc.Readonly)

	// Reconciliation, on means (which add, unlike percentiles). The
	// derived spans make rtt = transport + serve and Invoke = handler +
	// overhead exact; what is checked is the rest. On the in-process
	// calls the platform's overhead is set against the layer rungs on
	// the call's path; on http-spread the gateway's serve time against
	// the in-process Invoke of the same request; on async-chain the
	// event lag against its dispatch and queue parts.
	r := runRungs(ctx)
	avg := func(n spanName) time.Duration { return mean(byName[n]) }
	var leftover, gatewayLeftover time.Duration
	if len(byName[spanRTT]) > 0 {
		gatewayLeftover = avg(spanServe) - avg(spanInvoke)
		fmt.Printf("reconcile: mean rtt %.2fus = transport %.2fus + serve %.2fus\n",
			us(avg(spanRTT)), us(avg(spanTransport)), us(avg(spanServe)))
		fmt.Printf("reconcile: mean serve %.2fus = in-process Invoke %.2fus + gateway leftover %.2fus\n",
			us(avg(spanServe)), us(avg(spanInvoke)), us(gatewayLeftover))
	}
	if len(byName[spanInvoke]) > 0 {
		// Every call runs the function through the engine and loads the
		// object's state; a write also commits and appends its event.
		load := r.load1
		if b.w.stateKeys == wideKeys {
			load = r.load8
		}
		writeShare := ratio(float64(s.writeSamples), float64(s.samples))
		predicted := time.Duration(r.faasInvoke + load + writeShare*(r.cas1+r.elogAppend))
		leftover = avg(spanOverhead) - predicted
		fmt.Printf("reconcile: mean Invoke %.2fus = handler %.2fus + overhead %.2fus; overhead = rungs %.2fus (faas %.0fns + load %.0fns + %.2f x (cas %.0fns + event append %.0fns)) + leftover %.2fus\n",
			us(avg(spanInvoke)), us(avg(spanHandler)), us(avg(spanOverhead)), us(predicted),
			r.faasInvoke, load, writeShare, r.cas1, r.elogAppend, us(leftover))
	}
	if len(byName[spanAsync]) > 0 {
		leftover = avg(spanEventLag) - avg(spanDispatch) - avg(spanAuditWait)
		fmt.Printf("reconcile: mean submit->finished %.2fus = submit %.2fus + queue %.2fus + exec %.2fus + leftover %.2fus\n",
			us(avg(spanAsync)), us(avg(spanSubmit)), us(avg(spanQueueWait)), us(avg(spanExec)),
			us(avg(spanAsync)-avg(spanSubmit)-avg(spanQueueWait)-avg(spanExec)))
		fmt.Printf("reconcile: mean event lag %.2fus = dispatch %.2fus + queue %.2fus + leftover (drain to handler start) %.2fus\n",
			us(avg(spanEventLag)), us(avg(spanDispatch)), us(avg(spanAuditWait)), us(leftover))
	}
	overhead := 1 - ratio(s.throughput, ref.throughput)
	fmt.Printf("tracing overhead: traced %.0f ops/s against untraced %.0f ops/s (%.1f%%)\n",
		s.throughput, ref.throughput, 100*overhead)

	metrics := []metric{
		{"latency_p99_us", us(s.p99), "us"},
		{"write_p99_us", us(s.writeP99), "us"},
		{"gateway.serve_p50_us", us(p50(spanServe)), "us"},
		{"gateway.serve_p99_us", us(p99(spanServe)), "us"},
		{"gateway.transport_p50_us", us(p50(spanTransport)), "us"},
		{"platform.invoke_p50_us", us(p50(spanInvoke)), "us"},
		{"platform.overhead_p50_us", us(p50(spanOverhead)), "us"},
		{"handler.self_p50_us", us(p50(spanHandler)), "us"},
		{"runtime.aborts_per_commit", ratio(float64(after.conc.Aborts-before.conc.Aborts), commits), "ratio"},
		{"runtime.retries_per_commit", ratio(float64(after.conc.Retries-before.conc.Retries), commits), "ratio"},
		{"runtime.fallbacks", float64(after.conc.Fallbacks - before.conc.Fallbacks), "count"},
		{"runtime.readonly_share", ratio(readonly, commits+readonly), "ratio"},
		{"memtable.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio"},
		{"memtable.flushes_per_s", float64(flushes) / secs, "1/s"},
		{"memtable.docs_per_flush", ratio(float64(after.mem.FlushDocs-before.mem.FlushDocs), float64(flushes)), "count"},
		{"memtable.load1_ns", r.load1, "ns"},
		{"memtable.load8_ns", r.load8, "ns"},
		{"memtable.cas1_ns", r.cas1, "ns"},
		{"kvstore.write_ops_per_kop", perKop(after.kv.WriteOps - before.kv.WriteOps), "count/kop"},
		{"kvstore.docs_written_per_kop", perKop(after.kv.DocsWritten - before.kv.DocsWritten), "count/kop"},
		{"kvstore.read_ops_per_kop", perKop(after.kv.ReadOps - before.kv.ReadOps), "count/kop"},
		{"faas.invoke_ns", r.faasInvoke, "ns"},
		{"eventlog.appended_per_kop", perKop(after.elog.Appended - before.elog.Appended), "count/kop"},
		{"eventlog.append_ns", r.elogAppend, "ns"},
		{"trigger.emitted_per_kop", perKop(after.trig.Emitted - before.trig.Emitted), "count/kop"},
		{"trigger.delivered_per_kop", perKop(after.trig.Delivered - before.trig.Delivered), "count/kop"},
		{"trigger.dropped", float64(after.trig.Dropped - before.trig.Dropped), "count"},
		{"trigger.cursor_lag", float64(cursorLag(after.trig)), "count"},
		{"event_lag_p50_us", us(p50(spanEventLag)), "us"},
		{"event_lag_p99_us", us(p99(spanEventLag)), "us"},
		{"event_lag.dispatch_p50_us", us(p50(spanDispatch)), "us"},
		{"event_lag.queue_p50_us", us(p50(spanAuditWait)), "us"},
		{"asyncq.submit_p50_us", us(p50(spanSubmit)), "us"},
		{"asyncq.queue_wait_p50_us", us(p50(spanQueueWait)), "us"},
		{"asyncq.queue_wait_p99_us", us(p99(spanQueueWait)), "us"},
		{"asyncq.exec_p50_us", us(p50(spanExec)), "us"},
		{"asyncq.coalesced_share", ratio(coalesced, completed), "ratio"},
		{"asyncq.rejected", float64(rejected), "count"},
		{"asyncq.retried", float64(after.q.Retried - before.q.Retried), "count"},
		{"process.cpu_ms_per_kop", float64(after.cpu-before.cpu) / float64(time.Millisecond) / ops * 1000, "ms/kop"},
		{"process.allocs_per_op", float64(after.ms.Mallocs-before.ms.Mallocs) / ops, "count/op"},
		{"process.bytes_per_op", float64(after.ms.TotalAlloc-before.ms.TotalAlloc) / ops, "B/op"},
		{"process.gc_per_kop", float64(after.ms.NumGC-before.ms.NumGC) / ops * 1000, "count/kop"},
		{"process.gc_pause_ms", float64(after.ms.PauseTotalNs-before.ms.PauseTotalNs) / 1e6, "ms"},
		{"reconcile.leftover_us", us(leftover), "us"},
		{"reconcile.gateway_leftover_us", us(gatewayLeftover), "us"},
		{"trace.overhead_share", overhead, "ratio"},
	}
	writeDump(outDir, b, dumpOf(env, win, spans, before, after, metrics))
	return metrics
}

// collectAudits reads back the audits the traced window's place
// commits fired. The async queue persists every invocation record in
// the backing store; each audit's record gives its queue instants, and
// the audit's own output gives the source commit and handler start.
// Records live for asyncRecordTTL after they finish, so this samples
// the audits of the window's last seconds.
func collectAudits(ctx context.Context, b *bench, win window) []span {
	keys, err := b.p.Backing().List(ctx, "invocations/")
	if err != nil {
		fmt.Println("reading async records:", err)
		return nil
	}
	docs, err := b.p.Backing().BatchGet(ctx, keys)
	if err != nil {
		fmt.Println("reading async records:", err)
		return nil
	}
	end := win.start.Add(win.length)
	var out []span
	for _, doc := range docs {
		var rec asyncq.Record
		if json.Unmarshal(doc.Value, &rec) != nil || rec.Member != "audit" || rec.Status != asyncq.StatusCompleted {
			continue
		}
		var ar auditResult
		if json.Unmarshal(rec.Result, &ar) != nil {
			continue
		}
		commit := time.Unix(0, ar.EventNs)
		if commit.Before(win.start) || !commit.Before(end) {
			continue
		}
		req := -int64(len(out)/3 + 1)
		rel := func(t time.Time) time.Duration { return t.Sub(win.start) }
		out = append(out,
			span{req: req, name: spanEventLag, start: rel(commit), dur: time.Duration(ar.StartNs - ar.EventNs)},
			span{req: req, name: spanDispatch, parent: spanEventLag, start: rel(commit), dur: rec.Enqueued.Sub(commit)},
			span{req: req, name: spanAuditWait, parent: spanEventLag, start: rel(rec.Enqueued), dur: rec.Started.Sub(rec.Enqueued)},
		)
	}
	return out
}

// maxDumpSpans caps the spans kept for the dump (per source: the
// callers' share, then the audits); the per-layer figures use every
// span's duration, and the counters are always whole.
const maxDumpSpans = 200_000

func dumpOf(env map[string]any, win window, spans []span, before, after counters, metrics []metric) any {
	rows := make([][5]int64, len(spans))
	for i, s := range spans {
		rows[i] = [5]int64{s.req, int64(s.name), int64(s.parent), int64(s.start), int64(s.dur)}
	}
	m := map[string]float64{}
	for _, x := range metrics {
		m[x.name] = x.value
	}
	type side struct {
		Concurrency runtime.ConcurrencyStats `json:"concurrency"`
		Memtable    memtable.Stats           `json:"memtable"`
		KVStore     kvstore.Stats            `json:"kvstore"`
		EventLog    eventlog.Stats           `json:"eventlog"`
		Trigger     trigger.Stats            `json:"trigger"`
		AsyncQueue  asyncq.Stats             `json:"asyncq"`
		CPUNs       int64                    `json:"cpu_ns"`
		Mallocs     uint64                   `json:"mallocs"`
		NumGC       uint32                   `json:"num_gc"`
	}
	sideOf := func(c counters) side {
		return side{c.conc, c.mem, c.kv, c.elog, c.trig, c.q, int64(c.cpu), c.ms.Mallocs, c.ms.NumGC}
	}
	return map[string]any{
		"env":          env,
		"window_start": win.start,
		"window_ns":    int64(win.length),
		"span_names":   spanNames[:],
		"span_columns": []string{"req", "name", "parent", "start_ns", "dur_ns"},
		"spans":        rows,
		"counters":     map[string]side{"before": sideOf(before), "after": sideOf(after)},
		"metrics":      m,
	}
}
