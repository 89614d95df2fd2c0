package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	rt "asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// counters are the benchmark's own atomic counters around the program's
// network boundary: every message a party hands to its runtime.Sender
// (the TCP transport or the simulated router) and, in the traced run,
// the time spent inside that Sender and inside the runtime dispatch
// handler given to the router or transport.
type counters struct {
	msgs, bytes atomic.Int64

	sendNs, sendN         atomic.Int64 // traced: remote sends only
	dispatchNs, dispatchN atomic.Int64 // traced
}

// countingSender wraps a party's Sender with message and byte counts.
type countingSender struct {
	next rt.Sender
	c    *counters
}

func (s countingSender) Send(env wire.Envelope) {
	s.c.msgs.Add(1)
	s.c.bytes.Add(int64(wire.EnvelopeSize(env)))
	s.next.Send(env)
}

// timedSender is countingSender plus the time spent inside the wrapped
// Sender for messages to other parties (self-sends on TCP run the
// dispatch handler inline, which runtime.dispatch_us already covers).
type timedSender struct {
	next rt.Sender
	c    *counters
}

func (s timedSender) Send(env wire.Envelope) {
	s.c.msgs.Add(1)
	s.c.bytes.Add(int64(wire.EnvelopeSize(env)))
	if env.To == env.From {
		s.next.Send(env)
		return
	}
	t0 := time.Now()
	s.next.Send(env)
	s.c.sendNs.Add(int64(time.Since(t0)))
	s.c.sendN.Add(1)
}

func wrapSender(next rt.Sender, c *counters, traced bool) rt.Sender {
	if traced {
		return timedSender{next: next, c: c}
	}
	return countingSender{next: next, c: c}
}

// wrapDispatch times the runtime's Dispatch handler in the traced run.
func wrapDispatch(h func(wire.Envelope), c *counters, traced bool) func(wire.Envelope) {
	if !traced {
		return h
	}
	return func(env wire.Envelope) {
		t0 := time.Now()
		h(env)
		c.dispatchNs.Add(int64(time.Since(t0)))
		c.dispatchN.Add(1)
	}
}

// snapshot is the process state at a window boundary.
type snapshot struct {
	at          time.Time
	cpu         time.Duration
	allocs      uint64
	msgs, bytes int64
	goroutines  int
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func takeSnapshot(c *counters) snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocSample)
	return snapshot{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     allocSample[0].Value.Uint64(),
		msgs:       c.msgs.Load(),
		bytes:      c.bytes.Load(),
		goroutines: goruntime.NumGoroutine(),
	}
}

// slice is the deltas over one measured interval: a second of the open
// loop on serve, a round on ledger-n16 and fba.
type slice struct {
	elapsed     time.Duration
	cpu         time.Duration
	allocs      uint64
	msgs, bytes int64
	ops         int64 // committed ops (decisions on fba) inside the slice
}

// window is a run's measured slices. Per-op metrics are medians over the
// slices, so a transient stall in one slice moves them little.
type window struct{ slices []slice }

func (w *window) add(a, b snapshot, ops int64) {
	w.slices = append(w.slices, slice{
		elapsed: b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		allocs:  b.allocs - a.allocs,
		msgs:    b.msgs - a.msgs,
		bytes:   b.bytes - a.bytes,
		ops:     ops,
	})
}

// median is the median over slices with committed ops of f(slice).
func (w *window) median(f func(s slice) float64) float64 {
	var v []float64
	for _, s := range w.slices {
		if s.ops > 0 && s.elapsed > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}

// rate is the median over slices of committed ops per second.
func (w *window) rate() float64 {
	return w.median(func(s slice) float64 { return float64(s.ops) / s.elapsed.Seconds() })
}

// liveHeapMB forces a GC and returns the heap still in use.
func liveHeapMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	setups     []time.Duration
	throughput float64   // ops/s (decisions/s on fba), a median over slices
	lat        []float64 // per-op latency samples, ms
	// latSlices, when set, splits the latency samples into slices; the
	// latency metrics are then medians of the slices' percentiles.
	latSlices [][]float64
	win       window
	heapMB    float64

	attempted, failed int64
	problems          []string // failed output checks
	notes             []string

	layers *layerAcc // traced run only
}

func (o *outcome) problemf(format string, args ...interface{}) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// endToEnd turns the outcome into the nine end-to-end metrics.
func (o *outcome) endToEnd(w workload) report {
	rep := report{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Correct = false
	}
	setup := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setup[i] = d.Seconds()
	}
	slices := o.latSlices
	if len(slices) == 0 {
		slices = [][]float64{o.lat}
	}
	var p50s, tails []float64
	for _, l := range slices {
		sort.Float64s(l)
		n := len(l)
		if n == 0 {
			continue
		}
		if beyond := n - rankIndex(n, w.tailPct) - 1; beyond < 10 {
			o.notef("a slice of %d samples has only %d beyond p%g (want ≥ 10)", n, beyond, w.tailPct)
		}
		p50s = append(p50s, percentile(l, 50))
		tails = append(tails, percentile(l, w.tailPct))
	}
	perOp := func(f func(s slice) float64) float64 {
		return o.win.median(func(s slice) float64 { return f(s) / float64(s.ops) })
	}
	vals := map[string]float64{
		"setup_s":        median(setup),
		"throughput":     o.throughput,
		"p50_ms":         median(p50s),
		"tail_ms":        median(tails),
		"cpu_ms_per_op":  perOp(func(s slice) float64 { return float64(s.cpu) / 1e6 }),
		"allocs_per_op":  perOp(func(s slice) float64 { return float64(s.allocs) }),
		"msgs_per_op":    perOp(func(s slice) float64 { return float64(s.msgs) }),
		"wire_kb_per_op": perOp(func(s slice) float64 { return float64(s.bytes) / 1024 }),
		"live_heap_mb":   o.heapMB,
	}
	for _, m := range e2eMetrics {
		v := vals[m.name]
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			// Every end-to-end metric is positive on a run that did its work.
			o.problemf("%s = %v: the run measured nothing", m.name, v)
			rep.Correct = false
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	o.notef("%d latency samples in %d slice(s); tail_ms is p%g", len(o.lat), len(slices), w.tailPct)
	o.notef("set-ups (s): %.4f", setup)
	return rep
}

// rankIndex is the nearest-rank index of percentile p among n sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// median sorts a copy of vs and returns its middle value.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// quartiles returns Python's statistics.quantiles(vs, n=4) (exclusive
// method): the first quartile, the median and the third quartile.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return q(1), q(2), q(3)
}

// splitmix64 is the benchmark's input generator: a pure function of its
// argument, so inputs regenerate exactly from (seed, indices).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillBytes fills b with the generator stream keyed by key.
func fillBytes(b []byte, key uint64) {
	var w uint64
	for i := range b {
		if i%8 == 0 {
			w = splitmix64(key + uint64(i/8)*0x632be59bd9b4e019)
		}
		b[i] = byte(w)
		w >>= 8
	}
}

// mix folds several indices into one generator key.
func mix(parts ...int64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		h = splitmix64(h ^ uint64(p))
	}
	return h
}
