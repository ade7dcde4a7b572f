package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// stackSample is one distinct call stack of a CPU profile, leaf first with
// inlined frames expanded, and the number of samples that hit it.
type stackSample struct {
	frames []string
	n      int64
}

// profileStacks decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) into its call stacks. Only the fields a layer budget needs
// are read.
func profileStacks(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string table index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample: location ids leaf first, values [samples, cpu ns]
			var locs, vals []uint64
			if err := protoFields(msg, func(f int, v uint64, b []byte) error {
				var dst *[]uint64
				switch f {
				case 1:
					dst = &locs
				case 2:
					dst = &vals
				default:
					return nil
				}
				if b == nil {
					*dst = append(*dst, v)
					return nil
				}
				return packedVarints(b, func(x uint64) { *dst = append(*dst, x) })
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				samples = append(samples, sample{locs, int64(vals[0])})
			}
		case 4: // Location: id, then one Line per inlined frame
			var id uint64
			var fns []uint64
			if err := protoFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: id, name
			var id, name uint64
			if err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, errors.New("profile: frame with unresolved function")
				}
				frames = append(frames, strs[idx])
			}
		}
		out = append(out, stackSample{frames, s.count})
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with each field
// number and either its varint value (msg nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func packedVarints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// budget is a CPU-profile layer budget: each layer's share of all samples,
// the goruntime handoff and gc sub-shares, and the samples per deciding
// function (the frame classifyStack attributed them by).
type budget struct {
	share       map[string]float64
	handoff, gc float64
	samples     int64
	byFunc      map[string]int64
}

// layerBudget classifies every sample through the function→layer table.
func layerBudget(stacks []stackSample) budget {
	b := budget{share: map[string]float64{}, byFunc: map[string]int64{}}
	counts := map[string]int64{}
	var handoff, gc int64
	for _, s := range stacks {
		layer, class, fn := classifyStack(s.frames)
		counts[layer] += s.n
		b.byFunc[fn] += s.n
		b.samples += s.n
		switch class {
		case "handoff":
			handoff += s.n
		case "gc":
			gc += s.n
		}
	}
	if b.samples == 0 {
		return b
	}
	for _, l := range layers {
		b.share[l] = float64(counts[l]) / float64(b.samples)
	}
	b.handoff = float64(handoff) / float64(b.samples)
	b.gc = float64(gc) / float64(b.samples)
	return b
}
