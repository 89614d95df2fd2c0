package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	goruntime "runtime"
	"sort"
	"sync"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	"asyncft/internal/obs"
	rt "asyncft/internal/runtime"
	"asyncft/internal/shard"
	"asyncft/internal/trace"
	"asyncft/internal/transport"
)

// The serve workloads: n=4, t=1, two shards, one shard.Engine per party
// over its own runtime.Node and transport.TCP on loopback, with the core
// configuration `cmd/node -mode abc -shards` uses (local inner coin, K=2,
// fast path forced on by the engine).
const (
	serveN, serveT = 4, 1
	serveShards    = 2
	serveWidth     = 2
	servePayload   = 64   // bytes per op; the first 8 carry the op id
	serveStreams   = 1024 // client stream ids, spread over the shards by shard.Route
	// serveBacklog is the standing backlog per (party, shard) in the
	// closed-loop phase: four slots' worth of full batches, well under the
	// engine's default admission cap of 1024.
	serveBacklog = 256
	// serveSlotRate bounds the slots per second one shard commits (about
	// 170 at 1500 ops/s on two cores); the engines are sized from it so
	// no admitted op meets ErrFinished. An engine that still runs out
	// fails the run's checks.
	serveSlotRate  = 600
	serveSlotSlack = 3000
)

type serveSpec struct {
	name    string
	crashed int     // party that never starts (-1: none)
	rate    float64 // open-loop ops/s
	// setups is how many times a run sets the cluster up; setup_s is the
	// median. Each teardown with a crashed peer waits out the transport's
	// two-second flush grace, so serve-crash sets up fewer times.
	setups int
	// backlog is the measured length of the standing-backlog phase. Acks
	// arrive in lumps of whole slots (every ~300 ms under a crash), so the
	// phase counts acks over one long interval; serve's backlog slots
	// retain about half a megabyte each, so its phase is shorter.
	backlog time.Duration
	// latSlice, when set, cuts the open loop into slices of ops by due
	// time; p50_ms and tail_ms are then medians over the slices, so one
	// scheduler or collector stall moves them little.
	latSlice time.Duration
}

var (
	specServe = serveSpec{name: "serve", crashed: -1, rate: 1500, setups: 7,
		backlog: 4 * time.Second, latSlice: time.Second}
	specServeCrash = serveSpec{name: "serve-crash", crashed: 3, rate: 600, setups: 3,
		backlog: 8 * time.Second}
)

// serveCluster is one serving deployment: live parties 0..n-1 except the
// crashed one, each with its own node, transport and engine.
type serveCluster struct {
	spec  serveSpec
	live  []int
	nodes []*rt.Node
	tcps  []*transport.TCP
	engs  []*shard.Engine
	regs  []*obs.Registry // traced only

	cancel, helperCancel context.CancelFunc
	runWG                sync.WaitGroup
	mu                   sync.Mutex
	runErrs              []error // engines that returned before teardown
	stopping             bool
}

// deadAddr returns a loopback address nothing listens on: the crashed
// party's peer-table entry, so frames for it queue and dials fail.
func deadAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func newServeCluster(spec serveSpec, seed int64, slots int, c *counters, rec *trace.Recorder, notes *noteQueue) (*serveCluster, error) {
	n := serveN
	sc := &serveCluster{
		spec:  spec,
		nodes: make([]*rt.Node, n),
		tcps:  make([]*transport.TCP, n),
		engs:  make([]*shard.Engine, n),
		regs:  make([]*obs.Registry, n),
	}
	traced := rec != nil
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		if i == spec.crashed {
			a, err := deadAddr()
			if err != nil {
				sc.close()
				return nil, err
			}
			addrs[i] = a
			continue
		}
		sc.live = append(sc.live, i)
		node := rt.NewNode(i, n, serveT)
		tcp, err := transport.Listen(i, map[int]string{i: "127.0.0.1:0"}, wrapDispatch(node.Dispatch, c, traced))
		if err != nil {
			sc.close()
			return nil, err
		}
		sc.nodes[i], sc.tcps[i], addrs[i] = node, tcp, tcp.Addr()
	}
	for _, i := range sc.live {
		for j := 0; j < n; j++ {
			if j != i {
				sc.tcps[i].AddPeer(j, addrs[j])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	helperCtx, helperCancel := context.WithCancel(context.Background())
	sc.cancel, sc.helperCancel = cancel, helperCancel
	for _, i := range sc.live {
		i := i
		cfg := core.Config{K: 2, Eps: 0.1, InnerCoin: core.InnerCoinLocal, FastPath: true}
		if traced {
			reg := obs.NewRegistry()
			sc.nodes[i].Instrument(reg)
			sc.tcps[i].Instrument(reg)
			cfg.Metrics, cfg.Trace = reg, rec
			sc.regs[i] = reg
		}
		env := rt.NewEnv(i, n, serveT, sc.nodes[i], wrapSender(sc.tcps[i], c, traced), seed*7919+int64(i))
		eng, err := shard.New(env, shard.Options{
			Session: "bench/serve",
			Shards:  serveShards,
			Slots:   slots,
			Width:   serveWidth,
			Core:    cfg,
			OnSlotCommit: func(s, k int, ops []shard.Op) {
				notes.commit(i, s, k, ops)
			},
		})
		if err != nil {
			sc.close()
			return nil, err
		}
		sc.engs[i] = eng
	}
	for _, i := range sc.live {
		eng := sc.engs[i]
		sc.runWG.Add(1)
		go func() {
			defer sc.runWG.Done()
			err := eng.Run(ctx, helperCtx)
			sc.mu.Lock()
			if !sc.stopping {
				sc.runErrs = append(sc.runErrs, fmt.Errorf("engine returned before teardown: %v", err))
			}
			sc.mu.Unlock()
		}()
	}
	return sc, nil
}

// earlyExits reports engines that stopped on their own.
func (sc *serveCluster) earlyExits() []error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]error(nil), sc.runErrs...)
}

// close stops the engines, then the nodes and transports.
func (sc *serveCluster) close() {
	sc.mu.Lock()
	sc.stopping = true
	sc.mu.Unlock()
	if sc.cancel != nil {
		sc.cancel()
		sc.runWG.Wait()
		sc.helperCancel()
	}
	for _, nd := range sc.nodes {
		if nd != nil {
			nd.Close()
		}
	}
	// TCP.Close waits up to its flush grace for queued frames (forever
	// queued for a crashed peer), so the transports close in parallel.
	var wg sync.WaitGroup
	for _, tcp := range sc.tcps {
		if tcp == nil {
			continue
		}
		tcp := tcp
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcp.Close()
		}()
	}
	wg.Wait()
}

// linksUp reports whether every live party has a link to every other
// live party.
func (sc *serveCluster) linksUp() bool {
	for _, i := range sc.live {
		if sc.tcps[i].ConnectedPeers() < len(sc.live)-1 {
			return false
		}
	}
	return true
}

// commitNote is one OnSlotCommit callback at one party, reduced to the
// ids of the ops that party admitted (the ones it acks).
type commitNote struct {
	party, shard, slot int
	at                 time.Time
	ids                []int64
}

// noteQueue hands commit notes from the engines' watcher goroutines to the
// generator without blocking the watchers.
type noteQueue struct {
	mu    sync.Mutex
	items []commitNote
	wake  chan struct{} // capacity 1: a pending wake-up
}

func newNoteQueue() *noteQueue { return &noteQueue{wake: make(chan struct{}, 1)} }

func (q *noteQueue) commit(party, s, k int, ops []shard.Op) {
	at := time.Now()
	var ids []int64
	for _, op := range ops {
		if op.Origin == party && len(op.Payload) >= 8 {
			ids = append(ids, int64(binary.BigEndian.Uint64(op.Payload)))
		}
	}
	if len(ids) == 0 {
		return
	}
	q.mu.Lock()
	q.items = append(q.items, commitNote{party: party, shard: s, slot: k, at: at, ids: ids})
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *noteQueue) take(buf []commitNote) []commitNote {
	q.mu.Lock()
	out := q.items
	q.items = buf[:0]
	q.mu.Unlock()
	return out
}

// Op states in the generator's record.
const (
	opPending uint8 = iota + 1
	opAcked
	opFailed
)

// Phases of an op.
const (
	phaseWarm uint8 = iota
	phaseOpen
	phaseBacklog
)

// opRec is the generator's own record of one submitted op. Stream and
// payload bytes are not stored: they regenerate from (seed, id).
type opRec struct {
	party, shard int8
	state, phase uint8
	stream       int32
	slot, index  int32
	due          time.Time
	ch           <-chan shard.SubmitResult
}

// generator is the single goroutine that drives a serve run: it submits
// every op through Engine.SubmitAsync, receives every ack, and keeps the
// record the output check is computed from.
type generator struct {
	seed    int64
	sc      *serveCluster
	notes   *noteQueue
	rng     *rand.Rand
	streams [][]byte
	byShard [][]int32 // stream indices per shard
	recs    []opRec
	scratch []byte
	noteBuf []commitNote

	outstanding int
	perPS       [serveN][serveShards]int
	maxSlot     [serveShards]int32

	lat      [][]float64 // open-loop latency from due time, ms, per due-time slice
	openT0   time.Time
	latSlice time.Duration
	late     []float64 // open-loop generator lateness, ms
	submitUs []float64 // traced: time inside SubmitAsync, µs
	ackMs    []float64 // traced: OnSlotCommit callback → ack at the generator, ms
	rec      *trace.Recorder

	c     *counters
	acked int64 // acks received so far

	attempted, failed int64
	o                 *outcome
}

func newGenerator(seed int64, sc *serveCluster, notes *noteQueue, o *outcome, rec *trace.Recorder) *generator {
	g := &generator{
		seed:    seed,
		sc:      sc,
		notes:   notes,
		rng:     rand.New(rand.NewSource(seed)),
		scratch: make([]byte, servePayload),
		byShard: make([][]int32, serveShards),
		rec:     rec,
		o:       o,
	}
	for k := 0; k < serveStreams; k++ {
		s := []byte(fmt.Sprintf("stream-%d-%d", seed, k))
		g.streams = append(g.streams, s)
		sh := shard.Route(s, serveShards)
		g.byShard[sh] = append(g.byShard[sh], int32(k))
	}
	for s := range g.maxSlot {
		g.maxSlot[s] = -1
	}
	return g
}

// payload regenerates op id's 64 bytes: the id, then generator bytes.
func opPayload(dst []byte, seed, id int64) []byte {
	dst = dst[:servePayload]
	binary.BigEndian.PutUint64(dst, uint64(id))
	fillBytes(dst[8:], mix(seed, id))
	return dst
}

// submit records op id = len(recs) and hands it to party's engine.
func (g *generator) submit(party int, stream int32, phase uint8, due time.Time) {
	id := int64(len(g.recs))
	sh := shard.Route(g.streams[stream], serveShards)
	g.recs = append(g.recs, opRec{party: int8(party), shard: int8(sh), state: opPending, phase: phase, stream: stream, slot: -1, index: -1, due: due})
	r := &g.recs[id]
	g.attempted++
	payload := opPayload(g.scratch, g.seed, id)
	var ch <-chan shard.SubmitResult
	var err error
	if g.rec != nil && phase == phaseOpen {
		g.rec.Begin(party, opSpan(id), "op")
		t0 := time.Now()
		ch, err = g.sc.engs[party].SubmitAsync(g.streams[stream], payload)
		g.submitUs = append(g.submitUs, float64(time.Since(t0).Nanoseconds())/1e3)
	} else {
		ch, err = g.sc.engs[party].SubmitAsync(g.streams[stream], payload)
	}
	if err != nil {
		r.state = opFailed
		g.failed++
		if !errors.Is(err, shard.ErrOverloaded) || phase != phaseBacklog {
			g.o.problemf("submit of op %d at party %d rejected: %v", id, party, err)
		}
		return
	}
	r.ch = ch
	g.outstanding++
	g.perPS[party][sh]++
}

func opSpan(id int64) string { return rt.SubSession("bench/op", id) }

// process drains the pending commit notes and receives the acks they
// announce. The engine sends an op's ack before the callback for its
// slot runs, so each announced ack is ready.
func (g *generator) process() {
	notes := g.notes.take(g.noteBuf)
	now := time.Now()
	for _, nt := range notes {
		for _, id := range nt.ids {
			if id < 0 || id >= int64(len(g.recs)) {
				g.o.problemf("party %d committed unknown op id %d", nt.party, id)
				continue
			}
			r := &g.recs[id]
			if int(r.party) != nt.party || r.state != opPending {
				g.o.problemf("op %d committed again at party %d shard %d slot %d", id, nt.party, nt.shard, nt.slot)
				continue
			}
			var res shard.SubmitResult
			select {
			case res = <-r.ch:
			default:
				g.o.problemf("op %d: no ack after its slot's commit callback", id)
				continue
			}
			r.ch = nil
			g.outstanding--
			g.perPS[r.party][r.shard]--
			if res.Err != nil {
				r.state = opFailed
				g.failed++
				g.o.problemf("op %d failed: %v", id, res.Err)
				continue
			}
			r.state, r.slot, r.index = opAcked, int32(res.Pos.Slot), int32(res.Pos.Index)
			if res.Pos.Shard != int(r.shard) {
				g.o.problemf("op %d acked on shard %d, routed to %d", id, res.Pos.Shard, r.shard)
			}
			if r.slot > g.maxSlot[r.shard] {
				g.maxSlot[r.shard] = r.slot
			}
			if r.phase == phaseOpen {
				i := 0
				if g.latSlice > 0 {
					i = int(r.due.Sub(g.openT0) / g.latSlice)
				}
				for len(g.lat) <= i {
					g.lat = append(g.lat, nil)
				}
				g.lat[i] = append(g.lat[i], float64(now.Sub(r.due).Nanoseconds())/1e6)
				if g.rec != nil {
					g.ackMs = append(g.ackMs, float64(now.Sub(nt.at).Nanoseconds())/1e6)
					g.rec.End(int(r.party), opSpan(id), "op")
				}
			}
			g.acked++
		}
		nt.ids = nil
	}
	g.noteBuf = notes[:0]
}

// wait blocks until a commit note arrives or d elapses.
func (g *generator) wait(timer *time.Timer, d time.Duration) {
	if d <= 0 {
		return
	}
	timer.Reset(d)
	select {
	case <-timer.C:
	case <-g.notes.wake:
		if !timer.Stop() {
			<-timer.C
		}
	}
}

// openLoop submits rate·dur ops on a fixed schedule, round-robin over the
// live parties and at seeded random streams, each timed from its due time,
// then waits for every one of them to be acked.
func (g *generator) openLoop(rate float64, dur, limit time.Duration) {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	t0 := time.Now()
	g.openT0 = t0
	live := g.sc.live
	for i := 0; i < total; {
		now := time.Now()
		for i < total {
			due := t0.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			g.late = append(g.late, float64(now.Sub(due).Nanoseconds())/1e6)
			g.submit(live[i%len(live)], int32(g.rng.Intn(serveStreams)), phaseOpen, due)
			i++
		}
		g.process()
		if i < total {
			g.wait(timer, time.Until(t0.Add(time.Duration(i)*interval)))
		}
	}
	g.drain(limit)
}

// backlog keeps serveBacklog ops outstanding at every (party, shard) for
// ramp+dur and returns the ack rate over the last dur.
func (g *generator) backlog(ramp, dur time.Duration) float64 {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	start := time.Now()
	from, end := start.Add(ramp), start.Add(ramp+dur)
	var t0 time.Time
	var acked0 int64
	for {
		now := time.Now()
		if t0.IsZero() && !now.Before(from) {
			t0, acked0 = now, g.acked
		}
		if !now.Before(end) {
			return float64(g.acked-acked0) / now.Sub(t0).Seconds()
		}
		for _, p := range g.sc.live {
			for s := 0; s < serveShards; s++ {
				for g.perPS[p][s] < serveBacklog {
					pool := g.byShard[s]
					g.submit(p, pool[g.rng.Intn(len(pool))], phaseBacklog, time.Now())
				}
			}
		}
		next := end
		if t0.IsZero() {
			next = from
		}
		g.wait(timer, min(2*time.Millisecond, time.Until(next)))
		g.process()
	}
}

// drain stops submitting and waits for every outstanding op's ack.
func (g *generator) drain(limit time.Duration) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	deadline := time.Now().Add(limit)
	for g.outstanding > 0 && time.Now().Before(deadline) {
		g.wait(timer, 10*time.Millisecond)
		g.process()
	}
	if g.outstanding > 0 {
		g.o.problemf("%d ops still unacknowledged %v after the load stopped", g.outstanding, limit)
		for i := range g.recs {
			if g.recs[i].state == opPending {
				g.recs[i].state = opFailed
				g.failed++
			}
		}
	}
}

// awaitStores waits until every live party's store of each shard holds
// the highest acked slot, so every acked op is in the common prefix.
func (g *generator) awaitStores(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for {
		behind := false
		for _, p := range g.sc.live {
			for s := 0; s < serveShards; s++ {
				if g.sc.engs[p].Store(s).Next() <= int(g.maxSlot[s]) {
					behind = true
				}
			}
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			g.o.problemf("stores did not reach the acked slots within %v", limit)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warm submits one op at the first live party and waits until it has
// committed at every live party and every link is up.
func (g *generator) warm(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	pool := g.byShard[0]
	g.submit(g.sc.live[0], pool[g.rng.Intn(len(pool))], phaseWarm, time.Now())
	for g.outstanding > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up op not acked within %v", limit)
		}
		g.wait(timer, 5*time.Millisecond)
		g.process()
	}
	for {
		done := g.sc.linksUp()
		for _, p := range g.sc.live {
			if g.sc.engs[p].Store(0).Next() <= int(g.maxSlot[0]) {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up op not committed everywhere within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveView is a copy of what the live parties committed: per party, per
// shard, the entries of every slot in the contiguous committed prefix.
type serveView struct {
	live   []int
	stores map[int][][][]acs.Entry
}

func captureServe(sc *serveCluster) serveView {
	v := serveView{live: sc.live, stores: map[int][][][]acs.Entry{}}
	for _, p := range sc.live {
		per := make([][][]acs.Entry, serveShards)
		for s := 0; s < serveShards; s++ {
			st := sc.engs[p].Store(s)
			next := st.Next()
			slots := make([][]acs.Entry, next)
			for k := 0; k < next; k++ {
				slots[k], _ = st.Slot(k)
			}
			per[s] = slots
		}
		v.stores[p] = per
	}
	return v
}

func runServe(rc runConfig, spec serveSpec) *outcome {
	o := &outcome{}
	ramp, backDur := 500*time.Millisecond, spec.backlog
	// The open loop gets the rest of the run, in whole seconds so that its
	// one-second latency slices are all full.
	openDur := (time.Duration(rc.seconds*float64(time.Second)) - ramp - backDur).Truncate(time.Second)
	if openDur < time.Second {
		openDur = time.Second
	}
	const drainLimit = 30 * time.Second
	// Slots per engine, sized to the run: batch.Run allocates per slot up
	// front, so the engines get serveSlotRate slots per second per shard
	// over the phases plus serveSlotSlack for the warm-up and the drain.
	slots := int(serveSlotRate*(openDur+ramp+backDur).Seconds()) + serveSlotSlack

	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	c := &counters{}
	var (
		sc    *serveCluster
		gen   *generator
		notes *noteQueue
	)
	for i := 0; i < spec.setups; i++ {
		goruntime.GC()
		t0 := time.Now()
		notes = newNoteQueue()
		var rec *trace.Recorder
		if tr != nil {
			rec = tr.rec
		}
		var err error
		sc, err = newServeCluster(spec, rc.seed, slots, c, rec, notes)
		if err != nil {
			o.problemf("cluster: %v", err)
			return o
		}
		gen = newGenerator(rc.seed, sc, notes, o, rec)
		gen.c, gen.latSlice = c, spec.latSlice
		if err := gen.warm(30 * time.Second); err != nil {
			o.problemf("setup: %v", err)
			sc.close()
			return o
		}
		o.setups = append(o.setups, time.Since(t0))
		if i < spec.setups-1 {
			sc.close()
		}
	}
	gen.attempted, gen.failed = 0, 0 // the warm-up op is not a measured op
	goruntime.GC()
	if tr != nil {
		tr.startWindow(c, sc.regs)
	}

	// Phase 1: open loop at a fixed rate — latency, CPU and counts. The
	// window runs until every op of the phase is acked, so it holds all
	// of their work and only theirs.
	a, acked := takeSnapshot(c), gen.acked
	gen.openLoop(spec.rate, openDur, drainLimit)
	b := takeSnapshot(c)
	o.win.add(a, b, gen.acked-acked)
	if tr != nil {
		tr.endWindow(sc.regs, a, b, gen.acked-acked, float64(len(sc.live)))
	}

	// Phase 2: standing backlog — throughput. A forced GC first, so every
	// run enters the phase with the same collector state.
	goruntime.GC()
	o.throughput = gen.backlog(ramp, backDur)

	gen.drain(drainLimit)
	gen.awaitStores(10 * time.Second)
	for _, err := range sc.earlyExits() {
		o.problemf("%v", err)
	}
	o.heapMB = liveHeapMB()
	view := captureServe(sc)
	o.notef("slots committed per shard at party %d: %d, %d (engines sized to %d)",
		sc.live[0], len(view.stores[sc.live[0]][0]), len(view.stores[sc.live[0]][1]), slots)
	sc.close()

	for _, l := range gen.lat {
		o.lat = append(o.lat, l...)
	}
	if spec.latSlice > 0 {
		o.latSlices = gen.lat
	}
	o.attempted, o.failed = gen.attempted, gen.failed
	sort.Float64s(gen.late)
	o.notef("generator lateness: p99 %.3f ms, max %.3f ms over %d open-loop ops",
		percentile(gen.late, 99), maxOf(gen.late), len(gen.late))
	o.notef("open loop %.0f ops/s for %v; backlog %d per (party, shard) for %v after a %v ramp",
		spec.rate, openDur, serveBacklog, backDur, ramp)
	checkServe(view, gen.recs, func(id int64) []byte { return opPayload(make([]byte, servePayload), rc.seed, id) },
		gen.streams, o)
	if tr != nil {
		la := tr.layers
		la.submitUs, la.ackMs = gen.submitUs, gen.ackMs
		tr.finish(spec.name, rc.seed)
		o.layers = la
	}
	return o
}
