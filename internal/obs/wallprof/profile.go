package wallprof

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
)

// This file reads the parts of a gzipped pprof profile (the protobuf
// message of github.com/google/pprof's proto/profile.proto) that bucketing
// needs: samples, locations with their inlined lines, functions and the
// string table. Every other field is skipped.

var errMalformed = errors.New("malformed profile")

// fields calls fn for each field of the protobuf message b with its number,
// wire type, and its value (varint) or bytes (length-delimited).
// profile.proto declares no fixed-width fields, so those are malformed.
func fields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errMalformed
		}
		if err := fn(int(key>>3), int(key&7), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed (wire type
// 2) or one per field (wire type 0).
func appendUints(dst []uint64, wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst, errMalformed
		}
		dst, sub = append(dst, x), sub[n:]
	}
	return dst, nil
}

// profile is what bucketing reads of a decoded profile.
type profile struct {
	samples []sample
	locFns  map[uint64][]uint64 // location id → function ids, innermost first
	fnName  map[uint64]uint64   // function id → string table index
	strs    []string
}

type sample struct {
	locs []uint64 // location ids, leaf first
	n    int64    // value[0]: CPU samples with this stack and label set
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]uint64{}}
	return p, fields(raw, func(f, _ int, _ uint64, b []byte) error {
		switch f {
		case 2: // Profile.sample
			var s sample
			var vals []uint64
			err := fields(b, func(f, wire int, v uint64, b []byte) (err error) {
				switch f {
				case 1: // Sample.location_id
					s.locs, err = appendUints(s.locs, wire, v, b)
				case 2: // Sample.value
					vals, err = appendUints(vals, wire, v, b)
				}
				return err
			})
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return fields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // Profile.string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
}

// bucketSamples decodes a gzipped CPU profile and returns its sample count
// per components row. A sample goes to the first frame, from the leaf,
// whose package is in the table; within a location the first line is the
// innermost inlined frame. A sample with no such frame goes to the runtime
// row.
func bucketSamples(gz []byte) (counts [len(components)]int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return counts, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return counts, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return counts, err
	}
	fnRow := map[uint64]int{}
	rowOfFn := func(fn uint64) int {
		r, ok := fnRow[fn]
		if !ok {
			r = -1
			if i := p.fnName[fn]; i < uint64(len(p.strs)) {
				r = rowOf(p.strs[i])
			}
			fnRow[fn] = r
		}
		return r
	}
	for _, s := range p.samples {
		row := runtimeRow
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFns[loc] {
				if r := rowOfFn(fn); r >= 0 {
					row = r
					break frames
				}
			}
		}
		counts[row] += s.n
	}
	return counts, nil
}
