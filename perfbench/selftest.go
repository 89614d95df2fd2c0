package main

import (
	"fmt"
	"os"

	"asyncft/internal/acs"
	"asyncft/internal/shard"
)

// applies lists, per workload, the per-layer metrics that must read above
// zero there: the layers that workload exercises. The smoke test asserts
// them; every other per-layer metric must merely be emitted.
var applies = map[string][]string{
	"serve": {"shard.ops_per_slot", "shard.submit_us", "shard.ack_ms", "acs.slot_ms", "acs.dispersal_ms",
		"acs.confirm_ms", "acs.fastpath_hit_ratio", "acs.msgs_per_slot", "acs.kb_per_slot",
		"rbc.deliveries_per_slot", "runtime.dispatch_us", "runtime.sessions_per_op",
		"runtime.mailbox_highwater", "transport.send_us", "transport.frames_per_flush",
		"transport.queue_highwater", "wire.bytes_per_msg"},
	"serve-crash": {"shard.ops_per_slot", "shard.submit_us", "shard.ack_ms", "acs.slot_ms", "acs.dispersal_ms",
		"acs.confirm_ms", "acs.agree_ms", "acs.msgs_per_slot", "rbc.deliveries_per_slot",
		"ba.rounds_per_decision", "runtime.dispatch_us", "transport.send_us", "transport.queue_highwater",
		"wire.bytes_per_msg"},
	"ledger-n16": {"acs.slot_ms", "acs.dispersal_ms", "acs.confirm_ms", "acs.fastpath_hit_ratio",
		"acs.msgs_per_slot", "acs.kb_per_slot", "rbc.deliveries_per_slot", "runtime.dispatch_us",
		"runtime.sessions_per_op", "runtime.mailbox_highwater", "wire.bytes_per_msg",
		"cpu.acs"},
	"fba": {"ba.rounds_per_decision", "ba.coins_per_decision", "svss.share_rec_ms", "weakcoin.flip_ms",
		"core.coinflip_ms", "runtime.dispatch_us", "runtime.sessions_per_op", "wire.bytes_per_msg",
		"cpu.svss"},
}

// runSelfTest feeds every output check a genuine result, which it must
// accept, and corrupted ones, which it must reject; then it runs each
// workload briefly in traced mode and asserts every per-layer metric of
// BENCHMARK.json is emitted and the layers the workload exercises read
// above zero.
func runSelfTest() int {
	fails := 0
	expect := func(name string, wantReject bool, run func(o *outcome)) {
		o := &outcome{}
		run(o)
		rejected := len(o.problems) > 0
		status := "ok"
		if rejected != wantReject {
			status = "FAIL"
			fails++
		}
		fmt.Printf("selftest %-4s %-44s rejected=%v %v\n", status, name, rejected, o.problems)
	}

	// serve: three live parties, two shards, one slot per shard.
	sv := newServeFixture()
	expect("serve: genuine result", false, func(o *outcome) { sv.check(sv.view(), o) })
	expect("serve: dropped op", true, func(o *outcome) {
		v := sv.view()
		v.stores[1][sv.recs[0].shard][0] = sv.entries(int(sv.recs[0].shard), func(id int64) bool { return id != 0 })
		sv.check(v, o)
	})
	expect("serve: duplicated op", true, func(o *outcome) {
		v := sv.view()
		s := int(sv.recs[0].shard)
		v.stores[2][s] = append(v.stores[2][s], sv.entries(s, func(id int64) bool { return id == 0 }))
		sv.check(v, o)
	})
	expect("serve: op at the wrong index", true, func(o *outcome) {
		v := sv.view()
		s := int(sv.recs[0].shard)
		for _, p := range v.live {
			v.stores[p][s][0] = sv.entriesReversed(s)
		}
		sv.check(v, o)
	})
	expect("serve: flipped store byte", true, func(o *outcome) {
		v := sv.view()
		e := v.stores[1][0][0][0]
		b := append([]byte(nil), e.Payload...)
		b[len(b)-1] ^= 1
		v.stores[1][0][0] = append([]acs.Entry{{Slot: e.Slot, Party: e.Party, Payload: b}}, v.stores[1][0][0][1:]...)
		sv.check(v, o)
	})
	expect("serve: op never submitted", true, func(o *outcome) {
		v := sv.view()
		junk := shard.EncodeOps([]shard.Op{{Origin: 0, Seq: 99, Stream: []byte("x"), Payload: opPayload(make([]byte, servePayload), 5, 1000)}})
		for _, p := range v.live {
			v.stores[p][0] = append(v.stores[p][0], []acs.Entry{{Slot: 1, Party: 0, Payload: junk}})
		}
		sv.check(v, o)
	})

	// ledger: n=4, t=1, two slots.
	const n, t = 4, 1
	batchOf := func(p, k int) []byte { return ledgerBatch(3, 0, p, k) }
	ledgerView := func() [][][]acs.Entry {
		view := make([][][]acs.Entry, n)
		for p := range view {
			view[p] = make([][]acs.Entry, 2)
			for k := 0; k < 2; k++ {
				for j := 0; j < n; j++ {
					view[p][k] = append(view[p][k], acs.Entry{Slot: k, Party: j, Payload: batchOf(j, k)})
				}
			}
		}
		return view
	}
	expect("ledger: genuine result", false, func(o *outcome) { checkLedger(ledgerView(), n, t, batchOf, o) })
	expect("ledger: flipped store byte", true, func(o *outcome) {
		v := ledgerView()
		v[2][1][3].Payload[7] ^= 0x40
		checkLedger(v, n, t, batchOf, o)
	})
	expect("ledger: fewer than n-t contributors", true, func(o *outcome) {
		v := ledgerView()
		for p := range v {
			v[p][0] = v[p][0][:n-t-1]
		}
		checkLedger(v, n, t, batchOf, o)
	})
	expect("ledger: stores disagree", true, func(o *outcome) {
		v := ledgerView()
		v[3][0] = v[3][0][1:]
		checkLedger(v, n, t, batchOf, o)
	})

	// fba: four parties, two decisions.
	input := func(d, p int) []byte { return fbaInput(4, 0, d, p) }
	fbaRes := func() [][]fbaResult {
		res := make([][]fbaResult, 2)
		for d := range res {
			for p := 0; p < 4; p++ {
				res[d] = append(res[d], fbaResult{out: input(d, 2)})
			}
		}
		return res
	}
	expect("fba: genuine result", false, func(o *outcome) { checkFBA(fbaRes(), input, o) })
	expect("fba: disagreeing outputs", true, func(o *outcome) {
		r := fbaRes()
		r[1][3].out = input(1, 0)
		checkFBA(r, input, o)
	})
	expect("fba: output not among the inputs", true, func(o *outcome) {
		r := fbaRes()
		for p := range r[0] {
			r[0][p].out = []byte("nobody's input")
		}
		checkFBA(r, input, o)
	})

	// Traced smoke run of every workload.
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Println("selftest FAIL reading BENCHMARK.json (run from the repository root):", err)
		return 1
	}
	for _, w := range workloads {
		rep, err := runChild(w.name, 1, 2, true)
		if err != nil || !rep.Correct {
			fmt.Printf("selftest FAIL %s traced smoke run: %v\n", w.name, err)
			fails++
			continue
		}
		missing := 0
		for _, m := range spec.PerLayer {
			if _, ok := rep.Metrics[m.Name]; !ok {
				fmt.Printf("selftest FAIL %s: per-layer metric %s not emitted\n", w.name, m.Name)
				missing++
			}
		}
		for _, name := range applies[w.name] {
			if rep.Metrics[name].Value <= 0 {
				fmt.Printf("selftest FAIL %s: %s reads %v on a workload that exercises it\n", w.name, name, rep.Metrics[name].Value)
				missing++
			}
		}
		if missing > 0 {
			fails++
		} else {
			fmt.Printf("selftest ok   %s: all %d per-layer metrics emitted\n", w.name, len(spec.PerLayer))
		}
	}
	if fails > 0 {
		fmt.Fprintf(os.Stderr, "selftest: %d failure(s)\n", fails)
		return 1
	}
	fmt.Println("selftest: all checks passed")
	return 0
}

// serveFixture is a small, genuine serve result built by hand: live
// parties 0..2, ops 0..11 round-robin over them, all in slot 0 of their
// shard, acked at the positions the flattened slot gives them.
type serveFixture struct {
	seed    int64
	streams [][]byte
	recs    []opRec
}

func newServeFixture() *serveFixture {
	f := &serveFixture{seed: 5}
	// Op k goes to party k%3 and shard (k/3)%2, so every party has two ops
	// in each shard.
	for k := 0; k < 12; k++ {
		want := (k / 3) % 2
		var stream []byte
		for j := 0; stream == nil || shard.Route(stream, serveShards) != want; j++ {
			stream = []byte(fmt.Sprintf("fixture-%d-%d", k, j))
		}
		f.streams = append(f.streams, stream)
		f.recs = append(f.recs, opRec{party: int8(k % 3), shard: int8(want), state: opAcked, stream: int32(k)})
	}
	// Acked positions: flatten each shard's slot in party order.
	for s := 0; s < serveShards; s++ {
		idx := int32(0)
		for p := 0; p < 3; p++ {
			for id := range f.recs {
				if r := &f.recs[id]; int(r.shard) == s && int(r.party) == p {
					r.slot, r.index = 0, idx
					idx++
				}
			}
		}
	}
	return f
}

func (f *serveFixture) op(id int64) shard.Op {
	r := f.recs[id]
	return shard.Op{Origin: int(r.party), Seq: int(id), Stream: f.streams[r.stream], Payload: opPayload(make([]byte, servePayload), f.seed, id)}
}

// entries is shard s's slot with the ops keep admits, in party order.
func (f *serveFixture) entries(s int, keep func(id int64) bool) []acs.Entry {
	var out []acs.Entry
	for p := 0; p < 3; p++ {
		var ops []shard.Op
		for id := range f.recs {
			if r := f.recs[id]; int(r.shard) == s && int(r.party) == p && keep(int64(id)) {
				ops = append(ops, f.op(int64(id)))
			}
		}
		if len(ops) > 0 {
			out = append(out, acs.Entry{Slot: 0, Party: p, Payload: shard.EncodeOps(ops)})
		}
	}
	return out
}

// entriesReversed is shard s's slot with every party's ops in reverse.
func (f *serveFixture) entriesReversed(s int) []acs.Entry {
	var out []acs.Entry
	for p := 0; p < 3; p++ {
		var ops []shard.Op
		for id := len(f.recs) - 1; id >= 0; id-- {
			if r := f.recs[id]; int(r.shard) == s && int(r.party) == p {
				ops = append(ops, f.op(int64(id)))
			}
		}
		if len(ops) > 0 {
			out = append(out, acs.Entry{Slot: 0, Party: p, Payload: shard.EncodeOps(ops)})
		}
	}
	return out
}

func (f *serveFixture) view() serveView {
	v := serveView{live: []int{0, 1, 2}, stores: map[int][][][]acs.Entry{}}
	for _, p := range v.live {
		per := make([][][]acs.Entry, serveShards)
		for s := range per {
			per[s] = [][]acs.Entry{f.entries(s, func(int64) bool { return true })}
		}
		v.stores[p] = per
	}
	return v
}

func (f *serveFixture) check(v serveView, o *outcome) {
	recs := append([]opRec(nil), f.recs...)
	checkServe(v, recs, func(id int64) []byte { return opPayload(make([]byte, servePayload), f.seed, id) }, f.streams, o)
}
