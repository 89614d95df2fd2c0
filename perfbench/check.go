package main

import (
	"bytes"
	"encoding/binary"
	"errors"

	"asyncft/internal/acs"
)

// The output checks. They are computed from the benchmark's own record of
// what it submitted and from inputs regenerated from the seed, never from a
// stored copy of earlier output, and they decode committed op batches with
// a decoder of their own.

// benchOp is one decoded op of a committed batch.
type benchOp struct {
	origin, seq     uint64
	stream, payload []byte
}

var errBatch = errors.New("malformed op batch")

// decodeBatch parses one party's committed op batch: a uvarint count, then
// per op uvarint origin, uvarint seq and two uvarint-length-prefixed byte
// strings (stream, payload).
func decodeBatch(b []byte) ([]benchOp, error) {
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	field := func() ([]byte, bool) {
		l, ok := uv()
		if !ok || l > uint64(len(b)) {
			return nil, false
		}
		f := b[:l]
		b = b[l:]
		return f, true
	}
	cnt, ok := uv()
	if !ok || cnt > uint64(len(b)) {
		return nil, errBatch
	}
	ops := make([]benchOp, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var op benchOp
		var ok1, ok2, ok3, ok4 bool
		op.origin, ok1 = uv()
		op.seq, ok2 = uv()
		op.stream, ok3 = field()
		op.payload, ok4 = field()
		if !(ok1 && ok2 && ok3 && ok4) {
			return nil, errBatch
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return nil, errBatch
	}
	return ops, nil
}

// sameSlot reports whether two parties committed identical slot entries.
func sameSlot(a, b []acs.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Slot != b[i].Slot || a[i].Party != b[i].Party || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// checkServe verifies a serve run against the generator's record:
//   - every acked op appears exactly once in every live party's stores, at
//     its acked (shard, slot, index), with the bytes that were submitted;
//   - no op that was never submitted appears, and no op appears twice;
//   - per shard, the parties' stores are identical over their common
//     committed prefix.
func checkServe(v serveView, recs []opRec, payload func(id int64) []byte, streams [][]byte, o *outcome) {
	seen := make([]uint8, len(recs))
	for _, p := range v.live {
		for i := range seen {
			seen[i] = 0
		}
		for s, slots := range v.stores[p] {
			for k, entries := range slots {
				idx := 0
				for _, e := range entries {
					ops, err := decodeBatch(e.Payload)
					if err != nil {
						o.problemf("party %d shard %d slot %d: batch of party %d does not decode", p, s, k, e.Party)
						continue
					}
					for _, op := range ops {
						checkServeOp(p, s, k, idx, op, recs, seen, payload, streams, o)
						idx++
					}
				}
			}
		}
		for id := range recs {
			if recs[id].state == opAcked && seen[id] == 0 {
				o.problemf("party %d: acked op %d missing from shard %d", p, id, recs[id].shard)
			}
		}
	}
	// Identical stores over the common committed prefix, per shard.
	if len(v.live) == 0 {
		return
	}
	ref := v.stores[v.live[0]]
	for _, p := range v.live[1:] {
		for s := range ref {
			a, b := ref[s], v.stores[p][s]
			common := len(a)
			if len(b) < common {
				common = len(b)
			}
			for k := 0; k < common; k++ {
				if !sameSlot(a[k], b[k]) {
					o.problemf("shard %d slot %d: party %d and party %d committed different entries", s, k, v.live[0], p)
					break
				}
			}
		}
	}
}

func checkServeOp(p, s, k, idx int, op benchOp, recs []opRec, seen []uint8, payload func(id int64) []byte, streams [][]byte, o *outcome) {
	if len(op.payload) < 8 {
		o.problemf("party %d shard %d slot %d index %d: op was never submitted", p, s, k, idx)
		return
	}
	id := int64(binary.BigEndian.Uint64(op.payload))
	if id < 0 || id >= int64(len(recs)) {
		o.problemf("party %d shard %d slot %d index %d: op id %d was never submitted", p, s, k, idx, id)
		return
	}
	r := &recs[id]
	switch {
	case !bytes.Equal(op.payload, payload(id)) || !bytes.Equal(op.stream, streams[r.stream]):
		o.problemf("party %d shard %d slot %d index %d: op %d bytes differ from what was submitted", p, s, k, idx, id)
	case int(op.origin) != int(r.party) || s != int(r.shard):
		o.problemf("party %d: op %d committed via party %d shard %d, submitted at party %d shard %d", p, id, op.origin, s, r.party, r.shard)
	case seen[id] > 0:
		o.problemf("party %d: op %d committed twice (again at shard %d slot %d index %d)", p, id, s, k, idx)
	case r.state == opAcked && (int(r.slot) != k || int(r.index) != idx):
		o.problemf("party %d: op %d at slot %d index %d, acked at slot %d index %d", p, id, k, idx, r.slot, r.index)
	}
	if seen[id] < 255 {
		seen[id]++
	}
}

// checkLedger verifies one ledger round: every party committed every
// slot; each slot has at least n−t distinct contributors; each committed
// batch is the one regenerated from (seed, round, party, slot); and every
// party's slots are identical.
func checkLedger(view [][][]acs.Entry, n, t int, batchOf func(party, slot int) []byte, o *outcome) {
	for p := range view {
		for k, entries := range view[p] {
			if entries == nil {
				o.problemf("party %d: slot %d not committed", p, k)
				continue
			}
			contributors := map[int]bool{}
			for _, e := range entries {
				if e.Slot != k || e.Party < 0 || e.Party >= n || contributors[e.Party] {
					o.problemf("party %d slot %d: bad entry (slot %d, party %d)", p, k, e.Slot, e.Party)
					continue
				}
				contributors[e.Party] = true
				if !bytes.Equal(e.Payload, batchOf(e.Party, k)) {
					o.problemf("party %d slot %d: batch of party %d differs from its input", p, k, e.Party)
				}
			}
			if len(contributors) < n-t {
				o.problemf("party %d slot %d: %d contributors, need ≥ %d", p, k, len(contributors), n-t)
			}
			if p > 0 && !sameSlot(entries, view[0][k]) {
				o.problemf("slot %d: party %d and party 0 committed different entries", k, p)
			}
		}
	}
}

// checkFBA verifies decisions: all parties output the same value, and
// that value is one of the decision's inputs.
func checkFBA(res [][]fbaResult, input func(d, p int) []byte, o *outcome) {
	for d, per := range res {
		if len(per) == 0 {
			o.problemf("decision %d: no outputs", d)
			continue
		}
		for p := 1; p < len(per); p++ {
			if !bytes.Equal(per[p].out, per[0].out) {
				o.problemf("decision %d: party %d output differs from party 0", d, p)
			}
		}
		valid := false
		for p := range per {
			if bytes.Equal(per[0].out, input(d, p)) {
				valid = true
			}
		}
		if !valid {
			o.problemf("decision %d: output is none of the inputs", d)
		}
	}
}
