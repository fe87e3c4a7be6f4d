package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuCategories are the buckets CPU-profile samples are charged to, in
// report order. A sample goes to the innermost stack frame that belongs
// to module repro; samples without one go to the benchmark driver itself
// (package main), to the network stack, or to the Go runtime.
var cpuCategories = []string{
	"sim_handoff", "sim_other", "core", "coherence", "cache", "mem",
	"oracle", "stats", "workloads", "harness", "service", "client",
	"repro_other", "bench", "std_net", "std_runtime",
}

// frameCategory maps one function name to its repro category, or ""
// when the function is not in module repro.
func frameCategory(fn string) string {
	if !strings.HasPrefix(fn, "repro.") && !strings.HasPrefix(fn, "repro/") {
		return ""
	}
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch pkg {
	case "repro/internal/sim":
		// The thread handoff: every simulated op parks the thread
		// goroutine in yield and wakes the scheduler loop, and back.
		if strings.HasPrefix(fn, "repro/internal/sim.(*Thread).yield") ||
			strings.HasPrefix(fn, "repro/internal/sim.(*Thread).main") ||
			strings.HasPrefix(fn, "repro/internal/sim.(*Machine).schedule") {
			return "sim_handoff"
		}
		return "sim_other"
	case "repro/internal/core":
		return "core"
	case "repro/internal/coherence":
		return "coherence"
	case "repro/internal/cache":
		return "cache"
	case "repro/internal/mem":
		return "mem"
	case "repro/internal/oracle":
		return "oracle"
	case "repro/internal/stats":
		return "stats"
	case "repro/internal/workloads":
		return "workloads"
	case "repro/internal/harness":
		return "harness"
	case "repro/internal/service":
		return "service"
	case "repro/client":
		return "client"
	}
	return "repro_other"
}

// stackCategory charges one sample's stack (innermost frame first).
func stackCategory(frames []string) string {
	for _, fn := range frames {
		if c := frameCategory(fn); c != "" {
			return c
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "internal/poll.") {
			return "std_net"
		}
	}
	return "std_runtime"
}

// cpuAttribution sums the CPU time of a gzip-compressed CPU profile (the
// format runtime/pprof writes) by category, in nanoseconds.
func cpuAttribution(data []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(cpuCategories))
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				frames = append(frames, p.funcName[fid])
			}
		}
		if p.valueIdx < len(s.values) {
			out[stackCategory(frames)] += s.values[p.valueIdx]
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]string
	valueIdx int // index of the cpu/nanoseconds sample value
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzip-compressed profile.proto message: sample
// types (field 1), samples (2), locations (4), functions (5) and the
// string table (6). Other fields are skipped.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	var sampleTypes []uint64 // string index of each value's type
	funcNameIdx := make(map[uint64]uint64)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2:
			var s profSample
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return varints(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(m int, v uint64, _ []byte) error {
						if m == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, si := range funcNameIdx {
		p.funcName[id] = str(si)
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf message")

// fields walks one protobuf message, calling fn with each field number
// and either its scalar value (wire types 0, 1 and 5; b is nil) or its
// bytes (wire type 2; b is non-nil).
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		tag, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(tag>>3), tag&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field that arrived either packed
// (b non-nil) or as a single value v.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
