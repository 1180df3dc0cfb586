package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
)

// packageShares reads a gzipped runtime/pprof CPU profile and returns each
// Go package's share of the flat CPU time in percent — the per-package sum
// of the "flat%" column `go tool pprof -top` prints. A sample's time goes to
// the innermost function of its leaf location, as pprof attributes it.
func packageShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		strs     []string
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string-table index
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var locs, vals []uint64
			if err := walkProto(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, p)
				case 2:
					vals = appendVarints(vals, v, p)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			// runtime/pprof CPU samples carry [count, cpu nanoseconds].
			s.leaf = locs[0]
			s.value = int64(vals[len(vals)-1])
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			first := true
			if err := walkProto(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined call
					if first {
						first = false
						return walkProto(p, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			if err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[packageOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	for pkg := range shares {
		shares[pkg] = ratio(shares[pkg], total) * 100
	}
	return shares, nil
}

// packageOf extracts the import path from a symbol such as
// "stanoise/internal/linalg.(*LU).Factor".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// walkProto calls fn for every field of a protobuf message: v carries
// varint values, b the bytes of length-delimited fields.
func walkProto(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
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
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// gcCPU reads the runtime's cumulative GC and Go CPU seconds (user code,
// GC and scavenging; idle time excluded).
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			total += s[i].Value.Float64()
		}
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return gc, total
}
