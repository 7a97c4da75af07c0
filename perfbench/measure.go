package main

import (
	"slices"
	"time"
)

// A measured window is cut into sub-intervals of sliceLen (at least
// minSlices of them). Every end-to-end figure is computed per
// sub-interval and the median across them is reported, so a GC pause
// or a burst of work from another tenant on the host moves one
// sub-interval, not the run's result.
const (
	sliceLen  = time.Second
	minSlices = 5
)

// window is the measured interval [start, start+length).
type window struct {
	start  time.Time
	length time.Duration
}

func (w window) slices() int {
	return max(minSlices, int(w.length/sliceLen))
}

// latencies holds one caller's operations completed in a window, by
// sub-interval: all of them, and the writes again on their own.
type latencies struct {
	all, writes [][]time.Duration
}

func newLatencies(w window) latencies {
	n := w.slices()
	return latencies{all: make([][]time.Duration, n), writes: make([][]time.Duration, n)}
}

// add keeps one operation if it completed inside the window.
func (l *latencies) add(w window, t0, t1 time.Time, write bool) {
	at := t1.Sub(w.start)
	if w.length == 0 || at < 0 || at >= w.length {
		return
	}
	i := int(at * time.Duration(len(l.all)) / w.length)
	l.all[i] = append(l.all[i], t1.Sub(t0))
	if write {
		l.writes[i] = append(l.writes[i], t1.Sub(t0))
	}
}

// bytes is the memory the buffers hold, taken off the reported heap so
// the benchmark's own buffers do not count as the platform's.
func (l *latencies) bytes() uint64 {
	var n int
	for i := range l.all {
		n += cap(l.all[i]) + cap(l.writes[i])
	}
	return uint64(n) * 8
}

// summary holds the medians over sub-intervals of the end-to-end
// latency and throughput figures, plus the window's sample counts.
type summary struct {
	throughput   float64 // ops/s
	p50, p90     time.Duration
	p99          time.Duration
	writeP90     time.Duration
	writeP99     time.Duration
	samples      int
	writeSamples int
	// minSlice and minSliceWrites are the fewest samples (and write
	// samples) any sub-interval holds.
	minSlice, minSliceWrites int
}

// summarize merges the callers' latencies and returns the median over
// the window's sub-intervals of each per-sub-interval figure.
func summarize(w window, ls []latencies) summary {
	n := w.slices()
	var s summary
	per := w.length.Seconds() / float64(n)
	var tput []float64
	var p50, p90, p99, wp90, wp99 []time.Duration
	for i := range n {
		var all, writes []time.Duration
		for _, l := range ls {
			all = append(all, l.all[i]...)
			writes = append(writes, l.writes[i]...)
		}
		s.samples += len(all)
		s.writeSamples += len(writes)
		if i == 0 || len(all) < s.minSlice {
			s.minSlice = len(all)
		}
		if i == 0 || len(writes) < s.minSliceWrites {
			s.minSliceWrites = len(writes)
		}
		tput = append(tput, float64(len(all))/per)
		if len(all) > 0 {
			p50 = append(p50, quantile(all, 0.50))
			p90 = append(p90, quantile(all, 0.90))
			p99 = append(p99, quantile(all, 0.99))
		}
		if len(writes) > 0 {
			wp90 = append(wp90, quantile(writes, 0.90))
			wp99 = append(wp99, quantile(writes, 0.99))
		}
	}
	s.throughput = medianF(tput)
	s.p50, s.p90, s.p99 = quantile(p50, 0.5), quantile(p90, 0.5), quantile(p99, 0.5)
	s.writeP90, s.writeP99 = quantile(wp90, 0.5), quantile(wp99, 0.5)
	return s
}

// quantile sorts xs in place and returns its q-quantile, interpolating
// linearly between the two nearest ranks.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + time.Duration((pos-float64(lo))*float64(xs[lo+1]-xs[lo]))
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
