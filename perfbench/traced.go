package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"asyncft/internal/obs"
	"asyncft/internal/trace"
)

// layerMetrics are the per-layer metrics of the traced run, in print
// order, with their units (BENCHMARK.json holds the same list).
var layerMetrics = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"shard.ops_per_slot", "ops"},
		{"shard.requeue_ratio", "ratio"},
		{"shard.submit_us", "us"},
		{"shard.ack_ms", "ms"},
		{"acs.slot_ms", "ms"},
		{"acs.dispersal_ms", "ms"},
		{"acs.confirm_ms", "ms"},
		{"acs.agree_ms", "ms"},
		{"acs.fastpath_hit_ratio", "ratio"},
		{"acs.msgs_per_slot", "count"},
		{"acs.kb_per_slot", "KB"},
		{"rbc.deliveries_per_slot", "count"},
		{"rbc.pulls_per_slot", "count"},
		{"ba.rounds_per_decision", "count"},
		{"ba.coins_per_decision", "count"},
		{"svss.share_rec_ms", "ms"},
		{"weakcoin.flip_ms", "ms"},
		{"core.coinflip_ms", "ms"},
		{"runtime.dispatch_us", "us"},
		{"runtime.sessions_per_op", "count"},
		{"runtime.goroutines_per_slot", "count"},
		{"runtime.mailbox_highwater", "count"},
		{"transport.send_us", "us"},
		{"transport.frames_per_flush", "count"},
		{"transport.queue_highwater", "count"},
		{"wire.bytes_per_msg", "B"},
	}
	for _, l := range cpuLayers {
		m = append(m, struct{ name, unit string }{"cpu." + l, "ms"})
	}
	for _, e := range e2eMetrics {
		m = append(m, struct{ name, unit string }{"overhead." + e.name, "%"})
	}
	return m
}()

// Registry series the traced run reads, summed over parties and labels.
var sumSeries = []string{
	"shard_ops_committed_total", "shard_slots_committed", "shard_requeued_total", "serve_accepted_total",
	"acs_slots_committed_total", "acs_fastpath_hits_total", "rbc_deliveries_total", "rbc_pulls_sent_total",
	"ba_rounds_total", "ba_decisions_total", "ba_coin_invocations_total", "runtime_sessions_total",
	"transport_frames_out_total", "transport_flush_batches_total",
}

// High-water gauges, maximum over parties and labels.
var maxSeries = []string{"runtime_mailbox_depth_highwater", "transport_queue_depth_highwater"}

// layerAcc accumulates the traced run's raw per-layer measurements over
// its measured windows.
type layerAcc struct {
	ops, slots  float64
	reg         map[string]float64
	hw          map[string]float64
	cpuNs       map[string]float64
	sendNs      float64
	sendN       float64
	dispatchNs  float64
	dispatchN   float64
	msgs, bytes float64
	goroutines  float64
	windows     [][2]time.Time

	submitUs, ackMs                []float64
	svssMs, weakcoinMs, coinflipMs []float64
	spans                          map[string][]float64
	traceFile                      string
	traceEvents                    int
}

// tracer is the traced run's instrumentation: the span recorder handed to
// the program as core.Config.Trace (and used for the benchmark's own op
// and decision spans), the per-party registries, and a CPU profile per
// measured window.
type tracer struct {
	c        *counters
	rec      *trace.Recorder
	layers   *layerAcc
	regStart map[string]float64
	c0       [4]int64
	prof     bytes.Buffer
}

func newTracer() *tracer {
	return &tracer{
		rec: trace.New(1 << 19),
		layers: &layerAcc{reg: map[string]float64{}, hw: map[string]float64{},
			cpuNs: map[string]float64{}, spans: map[string][]float64{}},
	}
}

func regSum(regs []*obs.Registry, name string) float64 {
	total := 0.0
	for _, r := range regs {
		if snap, ok := r.Snapshot(name); ok {
			for _, v := range snap {
				total += v
			}
		}
	}
	return total
}

func regMax(regs []*obs.Registry, name string) float64 {
	m := 0.0
	for _, r := range regs {
		if snap, ok := r.Snapshot(name); ok {
			for _, v := range snap {
				m = math.Max(m, v)
			}
		}
	}
	return m
}

// startWindow marks the start of a measured window.
func (tr *tracer) startWindow(c *counters, regs []*obs.Registry) {
	tr.c = c
	tr.regStart = map[string]float64{}
	for _, s := range sumSeries {
		tr.regStart[s] = regSum(regs, s)
	}
	tr.c0 = [4]int64{c.sendNs.Load(), c.sendN.Load(), c.dispatchNs.Load(), c.dispatchN.Load()}
	tr.prof.Reset()
	if err := pprof.StartCPUProfile(&tr.prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
}

// endWindow closes a measured window of ops committed ops.
func (tr *tracer) endWindow(regs []*obs.Registry, a, b snapshot, ops int64, parties float64) {
	pprof.StopCPUProfile()
	la, c := tr.layers, tr.c
	if cpu, err := cpuByLayer(tr.prof.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	} else {
		for l, ns := range cpu {
			la.cpuNs[l] += float64(ns)
		}
	}
	for _, s := range sumSeries {
		la.reg[s] += regSum(regs, s) - tr.regStart[s]
	}
	for _, s := range maxSeries {
		la.hw[s] = math.Max(la.hw[s], regMax(regs, s))
	}
	la.sendNs += float64(c.sendNs.Load() - tr.c0[0])
	la.sendN += float64(c.sendN.Load() - tr.c0[1])
	la.dispatchNs += float64(c.dispatchNs.Load() - tr.c0[2])
	la.dispatchN += float64(c.dispatchN.Load() - tr.c0[3])
	la.msgs += float64(b.msgs - a.msgs)
	la.bytes += float64(b.bytes - a.bytes)
	la.goroutines += float64(b.goroutines - a.goroutines)
	la.ops += float64(ops)
	la.slots += (regSum(regs, "acs_slots_committed_total") - tr.regStart["acs_slots_committed_total"]) / parties
	la.windows = append(la.windows, [2]time.Time{a.at, b.at})
}

// finish pairs the recorded spans, keeps those inside a measured window,
// and writes the first seconds of the first window as a Chrome trace.
func (tr *tracer) finish(name string, seed int64) {
	la := tr.layers
	events := tr.rec.Events()
	type key struct {
		party         int
		session, name string
	}
	open := map[key]trace.Event{}
	inWindow := func(t time.Time) bool {
		for _, w := range la.windows {
			if !t.Before(w[0]) && !t.After(w[1]) {
				return true
			}
		}
		return false
	}
	var from, to time.Time
	if len(la.windows) > 0 {
		from = la.windows[0][0]
		to = from.Add(2 * time.Second)
	}
	var keep []trace.Event
	for _, e := range events {
		k := key{e.Party, e.Session, e.Detail}
		switch e.Kind {
		case trace.KindSpanBegin:
			open[k] = e
		case trace.KindSpanEnd:
			b, ok := open[k]
			if !ok {
				continue
			}
			delete(open, k)
			if inWindow(b.Time) {
				la.spans[e.Detail] = append(la.spans[e.Detail], float64(e.Time.Sub(b.Time).Nanoseconds())/1e6)
			}
			if !b.Time.Before(from) && !e.Time.After(to) {
				keep = append(keep, b, e)
			}
		default:
			if !e.Time.Before(from) && !e.Time.After(to) {
				keep = append(keep, e)
			}
		}
	}
	sort.SliceStable(keep, func(i, j int) bool { return keep[i].Seq < keep[j].Seq })
	dir := outDir()
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if f, err := os.Create(path); err == nil {
			werr := trace.WriteChromeEvents(f, keep)
			if cerr := f.Close(); werr == nil && cerr == nil {
				la.traceFile, la.traceEvents = path, len(keep)
			}
		}
	}
	if la.traceFile == "" {
		fmt.Fprintln(os.Stderr, "perfbench: could not write", path)
	}
}

// values turns the accumulated measurements into the per-layer metrics.
func (la *layerAcc) values() map[string]float64 {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return percentile(s, 50)
	}
	units := la.slots // acs slots; decisions where acs is idle
	if units == 0 {
		units = la.ops
	}
	r := la.reg
	out := map[string]float64{
		"shard.ops_per_slot":          div(r["shard_ops_committed_total"], r["shard_slots_committed"]),
		"shard.requeue_ratio":         div(r["shard_requeued_total"], r["serve_accepted_total"]),
		"shard.submit_us":             p50(la.submitUs),
		"shard.ack_ms":                p50(la.ackMs),
		"acs.slot_ms":                 p50(la.spans["slot"]),
		"acs.dispersal_ms":            p50(la.spans["dispersal"]),
		"acs.confirm_ms":              p50(la.spans["confirm"]),
		"acs.agree_ms":                p50(la.spans["agree"]),
		"acs.fastpath_hit_ratio":      div(r["acs_fastpath_hits_total"], r["acs_slots_committed_total"]),
		"acs.msgs_per_slot":           div(la.msgs, la.slots),
		"acs.kb_per_slot":             div(la.bytes/1024, la.slots),
		"rbc.deliveries_per_slot":     div(r["rbc_deliveries_total"], units),
		"rbc.pulls_per_slot":          div(r["rbc_pulls_sent_total"], units),
		"ba.rounds_per_decision":      div(r["ba_rounds_total"], r["ba_decisions_total"]),
		"ba.coins_per_decision":       div(r["ba_coin_invocations_total"], r["ba_decisions_total"]),
		"svss.share_rec_ms":           p50(la.svssMs),
		"weakcoin.flip_ms":            p50(la.weakcoinMs),
		"core.coinflip_ms":            p50(la.coinflipMs),
		"runtime.dispatch_us":         div(la.dispatchNs/1e3, la.dispatchN),
		"runtime.sessions_per_op":     div(r["runtime_sessions_total"], la.ops),
		"runtime.goroutines_per_slot": div(la.goroutines, units),
		"runtime.mailbox_highwater":   la.hw["runtime_mailbox_depth_highwater"],
		"transport.send_us":           div(la.sendNs/1e3, la.sendN),
		"transport.frames_per_flush":  div(r["transport_frames_out_total"], r["transport_flush_batches_total"]),
		"transport.queue_highwater":   la.hw["transport_queue_depth_highwater"],
		"wire.bytes_per_msg":          div(la.bytes, la.msgs),
	}
	for _, l := range cpuLayers {
		out["cpu."+l] = div(la.cpuNs[l]/1e6, la.ops)
	}
	return out
}

// runTraced measures the workload untraced in a child process, then
// traced in this process, and reports the per-layer metrics plus how far
// tracing moved each end-to-end metric.
func runTraced(w workload, rc runConfig) report {
	base, err := runChild(w.name, rc.seed, rc.seconds, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: untraced run:", err)
		return report{Correct: false, Attempted: 1, Metrics: map[string]metric{}}
	}
	rc.traced = true
	o := w.run(rc)
	traced := o.endToEnd(w)
	printTable(os.Stderr, w.name+" (traced)", traced, o)
	rep := report{
		Correct:   base.Correct && traced.Correct,
		Attempted: base.Attempted + traced.Attempted,
		Failed:    base.Failed + traced.Failed,
		Metrics:   map[string]metric{},
	}
	vals := map[string]float64{}
	if o.layers != nil {
		vals = o.layers.values()
	} else {
		rep.Correct = false
	}
	for _, e := range e2eMetrics {
		u, t := base.Metrics[e.name].Value, traced.Metrics[e.name].Value
		worse := 0.0
		if u != 0 {
			worse = (t - u) / u * 100
			if higherIsBetter[e.name] {
				worse = -worse
			}
		}
		vals["overhead."+e.name] = worse
	}
	for _, m := range layerMetrics {
		rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	printTable(os.Stdout, w.name+" per layer", rep, nil)
	if o.layers != nil && o.layers.traceFile != "" {
		fmt.Printf("   trace: %s (%d events, Chrome trace-event JSON)\n", o.layers.traceFile, o.layers.traceEvents)
	}
	return rep
}
