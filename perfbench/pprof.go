package main

// A stdlib-only reader for the pprof profile format (gzip-compressed
// protocol buffers, github.com/google/pprof/proto/profile.proto), just
// enough to attribute samples to layers: sample types, per-sample location
// stacks and values, locations (with inlined lines) and function names.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is a decoded pprof profile, reduced to symbolized stacks.
type profile struct {
	// SampleTypes names each column of Sample.Values ("samples", "cpu",
	// "alloc_space", ...).
	SampleTypes []string
	Samples     []profSample
}

// profSample is one stack with its values. Frames run from the innermost
// call (the leaf, inlined callees first) to the root.
type profSample struct {
	Frames []string
	Values []int64
}

// valueIndex returns the column of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.SampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (have %v)", name, p.SampleTypes)
}

// parseProfile decodes a profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawLoc struct{ funcs []uint64 } // function ids, innermost first
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locs        = map[uint64]rawLoc{}
		funcs       = map[uint64]int64{} // function id -> name string index
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s rawSample
			if err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var l rawLoc
			if err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = l
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
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
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, vt := range sampleTypes {
		name, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, name)
	}
	for _, rs := range samples {
		if len(rs.values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d sample types", len(rs.values), len(p.SampleTypes))
		}
		s := profSample{Values: rs.values}
		for _, id := range rs.locs {
			l, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d", id)
			}
			for _, fid := range l.funcs {
				ni, ok := funcs[fid]
				if !ok {
					return nil, fmt.Errorf("profile: unknown function %d", fid)
				}
				name, err := str(ni)
				if err != nil {
					return nil, err
				}
				s.Frames = append(s.Frames, name)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// walkFields calls fn for each top-level field of a protobuf message: v is
// the value of varint and fixed-width fields, b the payload of
// length-delimited ones.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either packed (one
// length-delimited run) or unpacked (one varint).
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint; n <= 0 means malformed or truncated.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// The layers are the repository's modules. A sample counts for the
// innermost fxpar/internal package on its stack, so runtime work a layer
// causes (allocation, map access, encoding/json) is charged to that layer.
var layers = []string{
	"apps", "fft", "dist", "comm", "fx", "group", "machine", "mapping",
	"sweep", "skeleton", "serve", "telemetry", "gc", "other",
}

// layerOfPkg maps the first path element under fxpar/internal/ to a layer.
// Packages that are not layers of their own join the layer they serve.
var layerOfPkg = map[string]string{
	"apps": "apps", "fft": "fft", "dist": "dist", "comm": "comm",
	"fx": "fx", "par": "fx", "hpf": "fx",
	"group": "group", "machine": "machine", "sim": "machine", "fault": "machine",
	"mapping": "mapping", "sweep": "sweep", "experiments": "sweep",
	"skeleton": "skeleton", "fsatomic": "skeleton", "serve": "serve",
	"trace": "telemetry", "metrics": "telemetry", "sketch": "telemetry", "stats": "telemetry",
}

const internalPrefix = "fxpar/internal/"

// layerOf attributes one stack (innermost frame first) to a layer.
func layerOf(frames []string) string {
	gc := false
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			top, _, _ := strings.Cut(pkg, "/")
			if l, ok := layerOfPkg[top]; ok {
				return l
			}
			return "other"
		}
		if isGCFrame(f) {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// isGCFrame reports the roots of the collector's own goroutines and of
// collections the program forces. Mark assists inside an allocation run on
// the allocating goroutine and count for its layer.
func isGCFrame(f string) bool {
	switch f {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC":
		return true
	}
	return false
}

// attribute sums column col of every sample by layer.
func attribute(p *profile, col int) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.Samples {
		out[layerOf(s.Frames)] += s.Values[col]
	}
	return out
}
