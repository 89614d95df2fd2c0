package main

import (
	"context"
	goruntime "runtime"
	"sync"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	rt "asyncft/internal/runtime"
)

// The ledger-n16 workload: n=16, t=5, all honest, acs.RunFrom driven
// directly with the fast path on. Every party contributes a full batch
// every slot: ledgerOps ops of ledgerOpBytes bytes, generated from
// (seed, round, party, slot).
const (
	ledgerN, ledgerT = 16, 5
	ledgerOps        = 64
	ledgerOpBytes    = 64
	// A round is ledgerSlots slots, ledgerWidth in flight, on a fresh
	// cluster: a node keeps every slot's sessions and helpers until it
	// closes, so one cluster per round keeps the run's memory bounded.
	ledgerSlots = 32
	ledgerWidth = 1
)

func ledgerBatch(seed int64, round, party, slot int) []byte {
	b := make([]byte, ledgerOps*ledgerOpBytes)
	fillBytes(b, mix(seed, int64(round), int64(party), int64(slot)))
	return b
}

func ledgerConfig(tr *tracer, reg int, sc *simCluster) core.Config {
	cfg := core.Config{K: 2, Eps: 0.1, InnerCoin: core.InnerCoinLocal, FastPath: true}
	if tr != nil {
		cfg.Metrics, cfg.Trace = sc.regs[reg], tr.rec
	}
	return cfg
}

// ledgerRound runs one round of slots at every party of sc and returns
// the parties' stores plus, per party and slot, admission and commit
// times. Commit is when the slot joins the party's contiguous committed
// prefix.
func ledgerRound(sc *simCluster, tr *tracer, sess string, slots int, input func(party, slot int) []byte) ([]*acs.Store, [][]time.Time, [][]time.Time, []error) {
	n := sc.n
	stores := make([]*acs.Store, n)
	adm := make([][]time.Time, n)
	com := make([][]time.Time, n)
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var watchers, runs sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		stores[p] = acs.NewStore()
		adm[p] = make([]time.Time, slots)
		com[p] = make([]time.Time, slots)
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			st := stores[p]
			for done := 0; done < slots; {
				ch := st.Advanced()
				next := st.Next()
				now := time.Now()
				for ; done < next && done < slots; done++ {
					com[p][done] = now
				}
				if done >= slots {
					return
				}
				select {
				case <-ch:
				case <-ctx.Done():
					return
				}
			}
		}()
		runs.Add(1)
		go func() {
			defer runs.Done()
			in := func(k int) []byte {
				adm[p][k] = time.Now()
				return input(p, k)
			}
			errs[p] = acs.RunFrom(ctx, sc.helperCtx, sc.envs[p], sess, 0, slots, ledgerWidth, in, ledgerConfig(tr, p, sc), stores[p])
		}()
	}
	runs.Wait()
	cancel()
	watchers.Wait()
	return stores, adm, com, errs
}

// captureLedger copies every party's committed slots.
func captureLedger(stores []*acs.Store, slots int) [][][]acs.Entry {
	view := make([][][]acs.Entry, len(stores))
	for p, st := range stores {
		view[p] = make([][]acs.Entry, slots)
		for k := 0; k < slots; k++ {
			view[p][k], _ = st.Slot(k)
		}
	}
	return view
}

func runLedger(rc runConfig) *outcome {
	o := &outcome{}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	c := &counters{}
	const setups = 15 // setup_s is the median
	for i := 0; i < setups; i++ {
		goruntime.GC()
		t0 := time.Now()
		sc := newSimCluster(ledgerN, ledgerT, rc.seed+int64(i), c, rc.traced)
		_, _, _, errs := ledgerRound(sc, tr, "bench/ledger/warm", 1, func(p, k int) []byte {
			return ledgerBatch(rc.seed, -1, p, k)
		})
		for _, err := range errs {
			if err != nil {
				o.problemf("warm-up slot: %v", err)
			}
		}
		o.setups = append(o.setups, time.Since(t0))
		sc.close()
		if len(o.problems) > 0 {
			return o
		}
	}
	goruntime.GC()

	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for round := 0; ; round++ {
		sc := newSimCluster(ledgerN, ledgerT, mixSeed(rc.seed, round), c, rc.traced)
		if tr != nil {
			tr.startWindow(c, sc.regs)
		}
		a := takeSnapshot(c)
		stores, adm, com, errs := ledgerRound(sc, tr, rt.SubSession("bench/ledger", round), ledgerSlots, func(p, k int) []byte {
			return ledgerBatch(rc.seed, round, p, k)
		})
		b := takeSnapshot(c)
		view := captureLedger(stores, ledgerSlots)
		committed := int64(0)
		for p := 0; p < ledgerN; p++ {
			if errs[p] != nil {
				o.problemf("round %d party %d: %v", round, p, errs[p])
			}
		}
		// Op latency: a party's ops wait from its slot admission to the
		// slot's commit in its own store.
		for k := 0; k < ledgerSlots; k++ {
			for _, e := range view[0][k] {
				committed += ledgerOps
				p := e.Party
				if com[p][k].IsZero() || adm[p][k].IsZero() {
					continue
				}
				ms := float64(com[p][k].Sub(adm[p][k]).Nanoseconds()) / 1e6
				for i := 0; i < ledgerOps; i++ {
					o.lat = append(o.lat, ms)
				}
			}
		}
		o.attempted += int64(ledgerSlots * ledgerN * ledgerOps)
		o.failed += int64(ledgerSlots*ledgerN*ledgerOps) - committed
		o.win.add(a, b, committed)
		if tr != nil {
			tr.endWindow(sc.regs, a, b, committed, float64(ledgerN))
		}
		last := !time.Now().Before(deadline)
		if last {
			o.heapMB = liveHeapMB()
		}
		checkLedger(view, ledgerN, ledgerT, func(p, k int) []byte { return ledgerBatch(rc.seed, round, p, k) }, o)
		sc.close()
		if last || len(o.problems) > 0 {
			o.notef("%d rounds of %d slots (width %d) on fresh %d-party clusters", round+1, ledgerSlots, ledgerWidth, ledgerN)
			break
		}
	}
	o.throughput = o.win.rate()
	if tr != nil {
		tr.finish("ledger-n16", rc.seed)
		o.layers = tr.layers
	}
	return o
}

// mixSeed derives a per-round network and randomness seed.
func mixSeed(seed int64, round int) int64 {
	return int64(mix(seed, int64(round)) >> 1)
}
