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

// attribution is a CPU profile folded into per-layer self time.
type attribution struct {
	self         map[string]int64 // group -> ns
	mainNs       int64            // samples on the benchmark's goroutine
	backgroundNs int64            // samples elsewhere (GC workers, profiler)
}

// layerOf maps the repository's packages to the layer groups the
// per-layer metrics name.
var layerOf = map[string]string{
	"pipette/internal/vfs":       "vfs",
	"pipette/internal/extfs":     "vfs",
	"pipette/internal/pagecache": "pagecache",
	"pipette/internal/core":      "core",
	"pipette/internal/hmb":       "core",
	"pipette/internal/slab":      "core",
	"pipette/internal/blockdev":  "blockdev",
	"pipette/internal/nvme":      "nvme",
	"pipette/internal/ssd":       "ssd",
	"pipette/internal/ftl":       "ftl",
	"pipette/internal/nand":      "nand",
	"pipette/internal/kv":        "kv",
	"pipette/internal/index":     "index",
	"pipette/internal/cluster":   "cluster",
	"pipette/internal/sim":       "sim",
	"pipette/internal/telemetry": "instruments",
	"pipette/internal/resource":  "instruments",
	"pipette/internal/metrics":   "instruments",
	"pipette/internal/workload":  "workload",
	"pipette":                    "api",
	"main":                       "bench",
}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.markroot": true, "runtime.gcDrain": true,
}

// funcPackage returns the import path of a symbol such as
// "pipette/internal/core.(*Pipette).Read".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// classify names the group a sample's CPU time belongs to. Walking from
// the leaf, the first frame of a mapped package owns the sample, so
// helpers (copy, map access, hashing, the bitset package) count toward
// the layer that called them; allocation and garbage collection are their
// own groups, and a sample with no mapped frame is "other".
func classify(frames []string) (group string, main bool) {
	for _, fn := range frames {
		if gcFrames[fn] {
			group = "runtime.gc"
		}
		if fn == "runtime.main" {
			main = true
		}
	}
	if group != "" {
		return group, main
	}
	for _, fn := range frames {
		if fn == "runtime.mallocgc" {
			return "runtime.malloc", main
		}
		if g, ok := layerOf[funcPackage(fn)]; ok {
			return g, main
		}
	}
	return "other", main
}

// attribute folds a gzipped CPU profile taken at hz into per-group ns.
func attribute(gz []byte, hz int) (attribution, error) {
	a := attribution{self: make(map[string]int64)}
	p, err := parseProfile(gz)
	if err != nil {
		return a, err
	}
	period := int64(1e9 / hz)
	var frames []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.str(p.funcName[fid]))
			}
		}
		ns := s.values[0] * period // values[0] is the sample count
		g, onMain := classify(frames)
		a.self[g] += ns
		if onMain {
			a.mainNs += ns
		} else {
			a.backgroundNs += ns
		}
	}
	return a, nil
}

// profile is the part of a pprof profile.proto the attribution reads.
type profile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type pprofSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of profile.proto used above: sample (2),
// location (4), function (5) and string_table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s pprofSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (b == nil for
// varints). Fixed-width fields are skipped.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			if err := fn(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, key&7)
		}
	}
	return nil
}

// packed delivers a repeated varint field that may be packed (b != nil)
// or a single unpacked element (v).
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}
