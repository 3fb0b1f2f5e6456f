package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// gcRoots are the runtime functions at the root of the garbage
// collector's own goroutines. Samples under them are charged to "gc".
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// moduleOf returns the layer a sample is charged to, given its stack of
// function names, innermost first: the innermost frame in one of this
// repository's modules. Runtime helpers such as mallocgc and gopark
// thereby go to the module that called them.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		if m := layerOf(fn); m != "" {
			return m
		}
	}
	return "other"
}

// layerOf returns the module of a function in gosvm/internal/<module>,
// or "" for any other function.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "gosvm/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return ""
}

// cpuSample is one decoded CPU-profile sample.
type cpuSample struct {
	stack []string // function names, innermost first, inlined frames expanded
	nanos int64
	cell  string // the "cell" pprof label, if any
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping only what attribution
// needs: each sample's stack, CPU time and cell label.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // (key, str) string-table indexes
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
	)
	err = walkProto(raw, func(field int, v uint64, sub []byte) error {
		switch field {
		case 1: // sample_type
			return walkProto(sub, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkProto(sub, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				case 3:
					var kv [2]uint64
					if err := walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(sub, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkProto(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: int64(s.values[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "cell" {
				cs.cell = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// walkProto calls fn for every field of a protobuf message: v holds a
// scalar's value, sub a length-delimited field's bytes.
func walkProto(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: a packed
// field arrives as bytes, an unpacked one as one value per occurrence.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst
}

// memCounts is a cumulative allocation profile: sampled bytes and
// objects per stack.
type memCounts map[[32]uintptr][2]int64

// memSnapshot reads the runtime's allocation profile. runtime.GC first
// publishes every allocation made so far.
func memSnapshot() memCounts {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	m := memCounts{}
	for _, r := range recs[:n] {
		c := m[r.Stack0]
		m[r.Stack0] = [2]int64{c[0] + r.AllocBytes, c[1] + r.AllocObjects}
	}
	return m
}

// allocByModule charges the bytes allocated between two snapshots to
// modules, scaled from the sampled counts as pprof scales them.
func allocByModule(before, after memCounts) map[string]float64 {
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	for stk, c := range after {
		b := c[0] - before[stk][0]
		objs := c[1] - before[stk][1]
		if b <= 0 || objs <= 0 {
			continue
		}
		bytes := float64(b)
		if rate > 1 {
			bytes /= 1 - math.Exp(-float64(b)/float64(objs)/rate)
		}
		out[moduleOf(symbolize(stk))] += bytes
	}
	return out
}

// symbolize returns the function names of a profile stack, innermost
// first, with inlined frames expanded.
func symbolize(stk [32]uintptr) []string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	var names []string
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}
