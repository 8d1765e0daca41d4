package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The runtime writes CPU and heap profiles as gzipped profile.proto
// messages. The benchmark needs only each sample's values, labels and
// stack of function names, so it decodes that subset of the format
// directly instead of depending on a profile library.

// sample is one decoded profile sample: its values (in the order of
// the profile's sample types), its string labels, and its stack as
// function names, leaf first (inlined frames expanded).
type sample struct {
	values []int64
	labels map[string]string
	stack  []string
}

// profile is the decoded subset of a profile.proto message.
type profile struct {
	sampleTypes []string
	samples     []sample
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (has %v)", typ, p.sampleTypes)
}

// pbuf is a cursor over protobuf wire-format bytes.
type pbuf struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (d *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTruncated
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads the next field: its number, wire type, and either its
// varint value (wire type 0) or its payload (wire type 2).
func (d *pbuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = d.varint()
	case 1:
		if len(d.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[8:]
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if uint64(len(d.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, d.b = d.b[:n], d.b[n:]
		}
	case 5:
		if len(d.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	d := pbuf{payload}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// pair reads varint fields 1 and 2 of a sub-message: as far as the
// benchmark uses them, ValueType (type, unit), Label (key, str),
// Function (id, name) and Line (function id, line) all have this shape.
func pair(payload []byte) ([2]uint64, error) {
	var out [2]uint64
	d := pbuf{payload}
	for len(d.b) > 0 {
		n, _, v, _, err := d.field()
		if err != nil {
			return out, err
		}
		if n == 1 || n == 2 {
			out[n-1] = v
		}
	}
	return out, nil
}

type rawSample struct {
	locs, values []uint64
	labels       [][2]uint64 // (key, str) string-table indexes
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		types   [][2]uint64 // (type, unit) string indexes
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	d := pbuf{raw}
	for len(d.b) > 0 {
		num, wire, _, payload, err := d.field()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			continue
		}
		switch num {
		case 1: // sample_type
			t, err := pair(payload)
			if err != nil {
				return nil, err
			}
			types = append(types, t)
		case 2: // sample: location ids, values, labels
			var s rawSample
			sub := pbuf{payload}
			for len(sub.b) > 0 {
				n, w, v, p, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, p)
				case 2:
					s.values, err = uints(s.values, w, v, p)
				case 3:
					var l [2]uint64
					l, err = pair(p)
					s.labels = append(s.labels, l)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location: id, lines
			var id uint64
			var fns []uint64
			sub := pbuf{payload}
			for len(sub.b) > 0 {
				n, _, v, p, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					line, err := pair(p)
					if err != nil {
						return nil, err
					}
					fns = append(fns, line[0])
				}
			}
			locs[id] = fns
		case 5: // function
			f, err := pair(payload)
			if err != nil {
				return nil, err
			}
			funcs[f[0]] = f[1]
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0]))
	}
	for _, rs := range samples {
		s := sample{values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, l := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(l[0])] = str(l[1])
		}
		for _, loc := range rs.locs {
			for _, fn := range locs[loc] {
				s.stack = append(s.stack, str(funcs[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// layers are the buckets CPU and allocation are attributed to, in
// report order: the repository's packages as the roadmap names its
// layers, the JSON codec under snapshot calls, background GC, and
// everything else.
var layers = []string{
	"topology", "lab", "experiment", "sim", "netem", "bgp", "bgp.rib", "bgp.wire",
	"policy", "speaker", "sdn", "core", "monitor", "codec", "gc", "other",
}

// layerOfPkg maps a package path below repro/internal to its layer.
// Packages not listed (idr, stats, collector, ...) fall into "other".
var layerOfPkg = map[string]string{
	"topology": "topology", "lab": "lab", "experiment": "experiment", "addressing": "experiment",
	"sim": "sim", "netem": "netem", "frames": "netem",
	"bgp": "bgp", "bgp/rib": "bgp.rib", "bgp/wire": "bgp.wire",
	"policy": "policy", "speaker": "speaker", "sdn": "sdn", "sdn/ofp": "sdn",
	"core": "core", "monitor": "monitor",
}

const internalPrefix = "repro/internal/"

// layerOf attributes a stack (leaf first) to one layer: the runtime's
// background memory work (GC mark workers, the sweeper, the scavenger)
// to "gc"; otherwise the innermost repro/internal frame's layer,
// so runtime work such as malloc and map access is charged to the code
// that asked for it — unless an encoding/json frame sits below that
// frame, which charges the sample to "codec". Samples inside the
// benchmark's own collections between trials (under runtime.GC) belong
// to no layer: it returns "".
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "runtime.GC":
			return ""
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "encoding/json.") {
			return "codec"
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				if l, ok := layerOfPkg[rest[:i]]; ok {
					return l
				}
			}
			return "other"
		}
	}
	return "other"
}

// layerTotals sums the profile's typ values per layer.
func layerTotals(p *profile, typ string) (map[string]int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if l := layerOf(s.stack); l != "" && vi < len(s.values) {
			out[l] += s.values[vi]
		}
	}
	return out, nil
}

// shares turns per-layer totals into fractions of their sum, one entry
// per layer in want (zero when nothing was attributed).
func shares(totals map[string]int64, want []string) map[string]float64 {
	var sum int64
	for _, v := range totals {
		sum += v
	}
	out := make(map[string]float64, len(want))
	for _, l := range want {
		if sum > 0 {
			out[l] = float64(totals[l]) / float64(sum)
		} else {
			out[l] = 0
		}
	}
	return out
}
