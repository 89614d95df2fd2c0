package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"asyncft/internal/batch"
	"asyncft/internal/core"
	"asyncft/internal/field"
	rt "asyncft/internal/runtime"
	"asyncft/internal/svss"
	"asyncft/internal/weakcoin"
)

// The fba workload: core.FBA (the paper's Algorithm 3) at n=4, t=1 on the
// simulated network, with the configuration Cluster.FairBA uses: the
// SVSS-based weak inner coin and a practical K. Every party inputs a
// distinct value, so no majority exists and every decision runs
// FairChoice and its CoinFlips. Decisions are pipelined through batch.Run.
const (
	fbaN, fbaT     = 4, 1
	fbaK           = 2
	fbaDecisions   = 24 // per round
	fbaWidth       = 8
	fbaInputBytes  = 32
	fbaProbeCalls  = 8 // traced: standalone svss / weakcoin / coinflip calls
	fbaCallTimeout = 60 * time.Second
)

func fbaConfig(tr *tracer, sc *simCluster, p int) core.Config {
	cfg := core.Config{K: fbaK, Eps: 0.1, InnerCoin: core.InnerCoinWeak}
	if tr != nil {
		cfg.Metrics, cfg.Trace = sc.regs[p], tr.rec
	}
	return cfg
}

func fbaInput(seed int64, round, decision, party int) []byte {
	b := make([]byte, fbaInputBytes)
	fillBytes(b, mix(seed, 7, int64(round), int64(decision), int64(party)))
	return b
}

// fbaResult is one party's output of one decision.
type fbaResult struct {
	out []byte
	ms  float64
}

// fbaRound runs decisions at every party through batch.Run and returns
// per decision, per party, the output and decision latency.
func fbaRound(sc *simCluster, tr *tracer, sess string, decisions, width int, input func(d, p int) []byte) ([][]fbaResult, error) {
	insts := make([]batch.Instance, decisions)
	for d := range insts {
		d := d
		s := rt.SubSession(sess, "d", d)
		insts[d] = batch.Instance{Session: s, Run: func(ctx context.Context, env *rt.Env) (interface{}, error) {
			if tr != nil {
				tr.rec.Begin(env.ID, s, "decision")
				defer tr.rec.End(env.ID, s, "decision")
			}
			t0 := time.Now()
			out, err := core.FBA(ctx, sc.helperCtx, env, s, input(d, env.ID), fbaConfig(tr, sc, env.ID))
			return fbaResult{out: out, ms: float64(time.Since(t0).Nanoseconds()) / 1e6}, err
		}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), fbaCallTimeout*time.Duration(1+decisions/width))
	defer cancel()
	res, err := batch.Run(ctx, sc.envMap(), insts, batch.Options{Width: width})
	if err != nil {
		return nil, err
	}
	out := make([][]fbaResult, decisions)
	for d, m := range res {
		out[d] = make([]fbaResult, sc.n)
		for p := 0; p < sc.n; p++ {
			r := m[p]
			if r.Err != nil {
				return nil, fmt.Errorf("decision %d party %d: %w", d, p, r.Err)
			}
			out[d][p] = r.Value.(fbaResult)
		}
	}
	return out, nil
}

func runFBA(rc runConfig) *outcome {
	o := &outcome{}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	c := &counters{}
	const setups = 7 // setup_s is the median
	for i := 0; i < setups; i++ {
		goruntime.GC()
		t0 := time.Now()
		sc := newSimCluster(fbaN, fbaT, rc.seed+int64(i), c, rc.traced)
		res, err := fbaRound(sc, tr, rt.SubSession("bench/fba/warm", i), 1, 1, func(d, p int) []byte {
			return fbaInput(rc.seed, -1, d, p)
		})
		if err != nil {
			o.problemf("warm-up decision: %v", err)
			sc.close()
			return o
		}
		checkFBA(res, func(d, p int) []byte { return fbaInput(rc.seed, -1, d, p) }, o)
		o.setups = append(o.setups, time.Since(t0))
		sc.close()
	}
	goruntime.GC()

	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for round := 0; ; round++ {
		sc := newSimCluster(fbaN, fbaT, mixSeed(rc.seed, round), c, rc.traced)
		if tr != nil {
			tr.startWindow(c, sc.regs)
		}
		a := takeSnapshot(c)
		res, err := fbaRound(sc, tr, rt.SubSession("bench/fba", round), fbaDecisions, fbaWidth, func(d, p int) []byte {
			return fbaInput(rc.seed, round, d, p)
		})
		b := takeSnapshot(c)
		o.attempted += fbaDecisions
		if err != nil {
			o.failed += fbaDecisions
			o.problemf("round %d: %v", round, err)
			sc.close()
			break
		}
		o.win.add(a, b, fbaDecisions)
		if tr != nil {
			tr.endWindow(sc.regs, a, b, fbaDecisions, fbaN)
		}
		for _, per := range res {
			for _, pr := range per {
				o.lat = append(o.lat, pr.ms)
			}
		}
		last := !time.Now().Before(deadline)
		if last {
			o.heapMB = liveHeapMB()
		}
		checkFBA(res, func(d, p int) []byte { return fbaInput(rc.seed, round, d, p) }, o)
		if last && tr != nil {
			fbaProbes(sc, tr, rc.seed)
		}
		sc.close()
		if last {
			o.notef("%d rounds of %d decisions (width %d, K=%d, weak inner coin) on fresh %d-party clusters",
				round+1, fbaDecisions, fbaWidth, fbaK, fbaN)
			break
		}
	}
	o.throughput = o.win.rate()
	if tr != nil {
		tr.finish("fba", rc.seed)
		o.layers = tr.layers
	}
	return o
}

// fbaProbes times standalone calls of the coin layers FBA rests on, at
// fba's n and configuration: svss share+reconstruct, one weak-coin flip
// and one CoinFlip, each at every party, fbaProbeCalls times.
func fbaProbes(sc *simCluster, tr *tracer, seed int64) {
	la := tr.layers
	cfg := core.Config{K: fbaK, Eps: 0.1, InnerCoin: core.InnerCoinWeak}
	each := func(name string, call func(ctx context.Context, env *rt.Env, sess string, i int) error) []float64 {
		var mu sync.Mutex
		var ms []float64
		for i := 0; i < fbaProbeCalls; i++ {
			sess := rt.SubSession("bench/probe", name, i)
			ctx, cancel := context.WithTimeout(context.Background(), fbaCallTimeout)
			var wg sync.WaitGroup
			for p := 0; p < sc.n; p++ {
				env := sc.envs[p].Fork(sess)
				wg.Add(1)
				go func() {
					defer wg.Done()
					t0 := time.Now()
					if err := call(ctx, env, sess, i); err != nil {
						return
					}
					mu.Lock()
					ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
					mu.Unlock()
				}()
			}
			wg.Wait()
			cancel()
		}
		return ms
	}
	la.svssMs = each("svss", func(ctx context.Context, env *rt.Env, sess string, i int) error {
		sh, err := svss.RunShare(ctx, env, sess, i%sc.n, field.New(uint64(mix(seed, int64(i))>>2)))
		if err != nil {
			return err
		}
		_, err = svss.RunRec(ctx, env, sh, svss.Options{})
		return err
	})
	la.weakcoinMs = each("weakcoin", func(ctx context.Context, env *rt.Env, sess string, i int) error {
		_, err := weakcoin.Flip(ctx, sc.helperCtx, env, sess, svss.Options{})
		return err
	})
	la.coinflipMs = each("coinflip", func(ctx context.Context, env *rt.Env, sess string, i int) error {
		_, err := core.CoinFlip(ctx, sc.helperCtx, env, sess, cfg)
		return err
	})
}
