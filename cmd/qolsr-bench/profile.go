package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU-share fold: a runtime/pprof CPU profile of the traced timed
// region, decoded here (the profile is a gzipped protobuf with a small
// fixed schema, so no dependency is needed) and folded into disjoint
// per-layer shares that sum to 1. This is the inside view of a run that
// needs no change to the program: the layers are not instrumented.

// stackSample is one profile sample: frames leaf-first and its CPU weight.
type stackSample struct {
	frames []string
	weight int64
}

// protoReader walks protobuf wire format. Only varint (0) and
// length-delimited (2) fields appear in profile.proto; fixed-width fields
// are skipped for robustness.
type protoReader struct {
	buf []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.buf) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		b := r.buf[0]
		r.buf = r.buf[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes.
func (r *protoReader) next() (field int, val uint64, data []byte, ok bool) {
	if r.err != nil || len(r.buf) == 0 {
		return 0, 0, nil, false
	}
	key := r.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val = r.varint()
	case 2:
		n := r.varint()
		if r.err == nil && n > uint64(len(r.buf)) {
			r.err = io.ErrUnexpectedEOF
		}
		if r.err == nil {
			data, r.buf = r.buf[:n], r.buf[n:]
		}
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(r.buf) < n {
			r.err = io.ErrUnexpectedEOF
		} else {
			r.buf = r.buf[n:]
		}
	default:
		r.err = fmt.Errorf("unsupported wire type %d", key&7)
	}
	return field, val, data, r.err == nil
}

// repeatedVarints decodes a repeated integer field occurrence, packed or
// not, appending to dst.
func repeatedVarints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := protoReader{buf: data}
	for len(r.buf) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// parseProfile decodes a pprof CPU profile into leaf-first stacks of
// function names weighted by the profile's last sample value (CPU
// nanoseconds).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
	)
	top := protoReader{buf: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s rawSample
			r := protoReader{buf: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, r.err = repeatedVarints(s.locs, v, d)
				case 2:
					s.values, r.err = repeatedVarints(s.values, v, d)
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("profile sample: %w", r.err)
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			r := protoReader{buf: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lr := protoReader{buf: d}
					for {
						lf, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
					if lr.err != nil {
						r.err = lr.err
					}
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("profile location: %w", r.err)
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			r := protoReader{buf: data}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("profile function: %w", r.err)
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// shareLayers are the program layers a stack can be attributed to, by the
// last element of the qolsr/internal/<layer> import path.
var shareLayers = map[string]bool{
	"des": true, "olsr": true, "core": true, "mpr": true, "graph": true,
	"sim": true, "traffic": true, "stats": true, "scenario": true, "node": true,
}

// Share buckets outside the program layers. harnessShare also absorbs
// stacks with no program frame at all (signal delivery, the profiler).
const (
	gcShare      = "runtime.gc_share"
	allocShare   = "runtime.alloc_share"
	schedShare   = "runtime.sched_share"
	harnessShare = "harness.cpu_share"
)

// schedFuncs are the runtime entry points of the goroutine scheduler and
// the thread parking beneath it.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.goschedImpl": true, "runtime.gopreempt_m": true,
	"runtime.ready": true, "runtime.goready": true, "runtime.wakep": true,
	"runtime.startm": true, "runtime.stopm": true, "runtime.mstart": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.notetsleep": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.netpoll": true, "runtime.usleep": true, "runtime.osyield": true,
	"runtime.runqgrab": true, "runtime.stealWork": true, "runtime.execute": true,
	"runtime.resetspinning": true, "runtime.checkTimers": true, "runtime.sysmon": true,
}

// bucketOf attributes one leaf-first stack to exactly one share bucket:
//
//  1. garbage collection, if any frame is a collector entry point
//     (runtime.gc*, background sweep and scavenge) — checked first because
//     an allocating goroutine can be drafted into a GC assist;
//  2. allocation, if any frame is the allocator or a slice/map grower;
//  3. scheduling, if any frame is a scheduler or thread-parking function;
//  4. otherwise the nearest program layer walking up from the leaf, so
//     the memmove or syscall a layer calls counts as that layer's time
//     (helper packages such as metric or rng are skipped — their cost
//     belongs to the layer that called them);
//  5. otherwise the harness.
func bucketOf(frames []string) string {
	alloc, sched := false, false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.wbBuf"):
			return gcShare
		case strings.HasPrefix(f, "runtime.mallocgc"), f == "runtime.newobject", f == "runtime.growslice",
			f == "runtime.makeslice", strings.HasPrefix(f, "runtime.makemap"), f == "runtime.newarray":
			alloc = true
		case schedFuncs[f]:
			sched = true
		}
	}
	if alloc {
		return allocShare
	}
	if sched {
		return schedShare
	}
	for _, f := range frames {
		if layer := layerOfFunc(f); shareLayers[layer] {
			return layer + ".cpu_share"
		}
	}
	return harnessShare
}

// layerOfFunc returns the <layer> of a qolsr/internal/<layer> function
// name such as "qolsr/internal/olsr.(*Node).HandleTC", or "".
func layerOfFunc(fn string) string {
	const prefix = "qolsr/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// shareNames lists every share bucket, so a fold reports all of them (an
// untouched layer reads 0, not absent).
func shareNames() []string {
	names := []string{gcShare, allocShare, schedShare, harnessShare}
	for l := range shareLayers {
		names = append(names, l+".cpu_share")
	}
	return names
}

// foldShares folds samples into per-bucket shares of the total weight.
func foldShares(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	for _, n := range shareNames() {
		out[n] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[bucketOf(s.frames)] += float64(s.weight) / float64(total)
	}
	return out
}
