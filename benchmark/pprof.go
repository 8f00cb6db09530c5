package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares are the keys of host.cpu_pct.*, in report order: the
// repository's packages, this benchmark, and the Go runtime split into
// scheduling and garbage collection for samples with no ofc frame.
var cpuShares = []string{
	"sim", "simnet", "kvstore", "store", "objstore", "core", "faas", "mltree", "memctl",
	"metrics", "trace", "workload", "benchmark", "runtime_sched", "runtime_gc", "other",
}

// foldProfile reads a runtime/pprof CPU profile and returns each
// key's share of the samples, in percent. A sample belongs to the
// package of its innermost ofc/... frame, so time a layer spends in the
// runtime on its own behalf (allocation, map access, locks) is charged
// to that layer; samples with no ofc frame are the runtime's own.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	known := map[string]bool{}
	for _, k := range cpuShares {
		known[k] = true
	}
	sums := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		key := ""
		gc, rt := false, false
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost first
				name := p.funcName[fn]
				if pkg := ofcPackage(name); pkg != "" {
					key = pkg
					break frames
				}
				if strings.HasPrefix(name, "runtime.") {
					rt = true
					if isGCFrame(name) {
						gc = true
					}
				}
			}
		}
		switch {
		case key != "" && !known[key]:
			key = "other"
		case key != "":
		case gc:
			key = "runtime_gc"
		case rt:
			key = "runtime_sched"
		default:
			key = "other"
		}
		sums[key] += float64(s.value)
		total += float64(s.value)
	}
	out := make(map[string]float64, len(cpuShares))
	for _, k := range cpuShares {
		out[k] = 100 * ratio(sums[k], total)
	}
	return out, nil
}

// ofcPackage maps a symbol to its host.cpu_pct key: the last path
// element of an ofc/... package, "benchmark" for this program, "" for
// anything else.
func ofcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may name other packages
	}
	if strings.HasPrefix(name, "main.") {
		return "benchmark"
	}
	if !strings.HasPrefix(name, "ofc/") {
		return ""
	}
	pkg := name[strings.LastIndexByte(name, '/')+1:]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

func isGCFrame(name string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.sweepone"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// profile is the part of pprof's profile.proto the folding needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (cpu nanoseconds)
}

var errTruncated = errors.New("truncated protobuf")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (r *protoReader) next() (field int, v uint64, data []byte, err error) {
	tag, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(tag >> 3)
	switch tag & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return 0, 0, nil, err
		}
		if uint64(len(r.b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", tag&7)
	}
	return field, v, data, err
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	r := protoReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s profSample
			var values []uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeated(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeated(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := protoReader{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}
