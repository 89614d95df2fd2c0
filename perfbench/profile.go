package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes,
// enough to attribute CPU samples to the repository's packages. Field
// numbers are those of profile.proto (github.com/google/pprof).

var errProto = errors.New("malformed profile")

type pb struct {
	b   []byte
	err error
}

func (p *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errProto
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errProto
	return 0
}

// field reads the next key; ok is false at the end or on error.
func (p *pb) field() (num int, wt int, ok bool) {
	if len(p.b) == 0 || p.err != nil {
		return 0, 0, false
	}
	k := p.varint()
	return int(k >> 3), int(k & 7), p.err == nil
}

func (p *pb) bytes() []byte {
	l := p.varint()
	if p.err != nil || l > uint64(len(p.b)) {
		p.err = errProto
		return nil
	}
	out := p.b[:l]
	p.b = p.b[l:]
	return out
}

func (p *pb) skip(wt int) {
	switch wt {
	case 0:
		p.varint()
	case 1:
		p.fixed(8)
	case 2:
		p.bytes()
	case 5:
		p.fixed(4)
	default:
		p.err = errProto
	}
}

func (p *pb) fixed(n int) {
	if len(p.b) < n {
		p.err = errProto
		return
	}
	p.b = p.b[n:]
}

// uints reads a repeated integer field in either packed or plain form.
func (p *pb) uints(wt int, dst []uint64) []uint64 {
	if wt == 0 {
		return append(dst, p.varint())
	}
	inner := pb{b: p.bytes()}
	for len(inner.b) > 0 && inner.err == nil {
		dst = append(dst, inner.varint())
	}
	if inner.err != nil {
		p.err = inner.err
	}
	return dst
}

// cpuByLayer parses a CPU profile and returns CPU nanoseconds per layer:
// each sample's time goes to the innermost asyncft/internal package on its
// stack; stacks without one go to gc (collector workers), sched (the
// scheduler) or other.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples [][]byte
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	p := pb{b: raw}
	for {
		num, wt, ok := p.field()
		if !ok {
			break
		}
		switch {
		case num == 2 && wt == 2:
			samples = append(samples, p.bytes())
		case num == 4 && wt == 2:
			loc := pb{b: p.bytes()}
			var id uint64
			var fns []uint64
			for {
				n, w, ok := loc.field()
				if !ok {
					break
				}
				switch {
				case n == 1 && w == 0:
					id = loc.varint()
				case n == 4 && w == 2:
					line := pb{b: loc.bytes()}
					for {
						ln, lw, ok := line.field()
						if !ok {
							break
						}
						if ln == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
				default:
					loc.skip(w)
				}
			}
			locFns[id] = fns
		case num == 5 && wt == 2:
			fn := pb{b: p.bytes()}
			var id, name uint64
			for {
				n, w, ok := fn.field()
				if !ok {
					break
				}
				switch {
				case n == 1 && w == 0:
					id = fn.varint()
				case n == 2 && w == 0:
					name = fn.varint()
				default:
					fn.skip(w)
				}
			}
			fnName[id] = name
		case num == 6 && wt == 2:
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wt)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	out := map[string]int64{}
	var locs, vals []uint64
	var stack []string
	for _, raw := range samples {
		s := pb{b: raw}
		locs, vals = locs[:0], vals[:0]
		for {
			n, w, ok := s.field()
			if !ok {
				break
			}
			switch n {
			case 1:
				locs = s.uints(w, locs)
			case 2:
				vals = s.uints(w, vals)
			default:
				s.skip(w)
			}
		}
		if s.err != nil || len(vals) == 0 {
			return nil, errProto
		}
		stack = stack[:0]
		for _, l := range locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[classifyStack(stack)] += int64(vals[len(vals)-1])
	}
	return out, nil
}

// packageLayers are the asyncft/internal packages cpu.<layer> reports;
// cpuLayers adds the collector, the scheduler and everything else.
var (
	packageLayers = []string{"shard", "acs", "batch", "rbc", "rs", "ba", "commonsubset", "svss", "weakcoin",
		"core", "field", "wire", "runtime", "network", "transport", "obs"}
	cpuLayers = append(append([]string(nil), packageLayers...), "gc", "sched", "other")
)

// classifyStack maps a stack (innermost frame first) to a layer.
func classifyStack(stack []string) string {
	const prefix = "asyncft/internal/"
	for _, fn := range stack {
		if strings.HasPrefix(fn, prefix) {
			pkg := fn[len(prefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range packageLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcDrain"),
			strings.HasPrefix(fn, "runtime.markroot"), fn == "runtime.GC":
			return "gc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
			"runtime.goexit0", "runtime.gosched_m", "runtime.goschedImpl", "runtime.sysmon",
			"runtime.stopm", "runtime.startm", "runtime.mstart1":
			return "sched"
		}
	}
	return "other"
}
