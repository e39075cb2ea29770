package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// profileHz is the CPU sampling rate asked for in the traced pass. A
// simulation pass lasts a couple of seconds, so the default 100 Hz would
// leave a layer with a few percent of CPU only a handful of samples. The
// kernel's timer may deliver fewer signals than asked, so profiles are
// read as shares and scaled by the CPU time the process measured.
const profileHz = 500

// profileCPU runs fn under a CPU profile and returns the raw gzipped
// profile.proto bytes and the process CPU time (user and system) fn
// took.
func profileCPU(fn func()) ([]byte, time.Duration, error) {
	var buf bytes.Buffer
	// Raising the rate before StartCPUProfile makes the runtime print a
	// warning to stderr, but the higher rate applies.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, 0, err
	}
	cpu0 := cpuTime()
	fn()
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	return buf.Bytes(), cpu, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuByPackage decodes a gzipped profile.proto CPU profile (the format
// runtime/pprof writes) and sums the CPU values of its samples by the
// package of each sample's leaf frame. Only the fields that attribution
// needs are read; everything else is skipped by wire type.
func cpuByPackage(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		types     [][]byte
		samples   []sample
		locLeaf   = map[uint64]uint64{} // location ID -> innermost function ID
		funcNames = map[uint64]int64{}  // function ID -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			types = append(types, b)
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.vals, err = appendPacked(s.vals, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seenLine:
					// The first line is the innermost inlined frame.
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// The CPU value is the sample type whose type string is "cpu".
	cpuIdx := -1
	for i, t := range types {
		err := eachField(t, func(num int, v uint64, _ []byte) error {
			if num == 1 && str(int64(v)) == "cpu" {
				cpuIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || cpuIdx >= len(s.vals) {
			continue
		}
		name := str(funcNames[locLeaf[s.locs[0]]])
		out[packageOf(name)] += int64(s.vals[cpuIdx])
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire types 0, 1 and 5) or its bytes
// (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either as
// one varint (v, b == nil) or packed into bytes.
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// uvarint decodes a base-128 varint, returning the byte count read (0 or
// less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a Go symbol's package:
// "ndpext/internal/sampler.(*Sampler).Observe" -> "ndpext/internal/sampler".
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiations may name other packages
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	if dot := strings.IndexByte(sym[slash:], '.'); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

// layerOf maps a leaf package to one of hostLayers. The repository's
// simulator packages map by name; serving and networking code is
// "serve"; the rest of the standard library (scheduler, GC, maps, math,
// syscalls) is "runtime"; anything else is "other".
func layerOf(pkg string) string {
	const mod = "ndpext/internal/"
	switch pkg {
	case mod + "sampler":
		return "sampler"
	case mod + "sim":
		return "sim"
	case mod + "streamcache", mod + "stream":
		return "streamcache"
	case mod + "nuca":
		return "nuca"
	case mod + "cache":
		return "l1cache"
	case mod + "noc":
		return "noc"
	case mod + "dram", mod + "cxl":
		return "memdev"
	case mod + "system", mod + "telemetry", mod + "stats", mod + "energy", mod + "fault":
		return "system"
	case mod + "policy", mod + "maxflow":
		return "policy"
	case mod + "adapt":
		return "adapt"
	case mod + "trace", "compress/flate", "hash/crc32":
		return "trace"
	case mod + "workloads", mod + "graph":
		return "workloads"
	case mod + "client", mod + "cluster", mod + "simcache", "encoding/json", "bufio", "mime":
		return "serve"
	}
	switch {
	case strings.HasPrefix(pkg, mod+"server/"), strings.HasPrefix(pkg, "net"), strings.HasPrefix(pkg, "crypto/"):
		return "serve"
	case strings.HasPrefix(pkg, mod), pkg == "main", !isStdlib(pkg):
		return "other"
	}
	return "runtime"
}

// shareOf maps a leaf package to one of serveShares: the simulator
// (trace generation included), HTTP and networking, JSON encoding, the
// Go runtime, and the rest of the serving stack.
func shareOf(pkg string) string {
	const mod = "ndpext/internal/"
	switch pkg {
	case "encoding/json", "reflect", "strconv", "unicode/utf8", mod + "server/result":
		return "json"
	case "bufio", "mime", "internal/poll", "syscall", "internal/runtime/syscall",
		mod + "server/transport", mod + "cluster", mod + "client":
		return "http"
	}
	if strings.HasPrefix(pkg, "net") {
		return "http"
	}
	switch layerOf(pkg) {
	case "runtime":
		return "runtime"
	case "serve", "other":
		return "other"
	}
	return "sim"
}

// isStdlib reports whether an import path belongs to the standard
// library, whose first element never contains a dot.
func isStdlib(pkg string) bool {
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".") && first != "ndpext" && pkg != "main"
}
