package trace

import (
	"errors"
	"hash/crc32"
)

// refDecode is the reference decoder the fuzz targets hold Reader and
// MemFile to. It is a naive reading of the format described at the top
// of file.go — whole input in memory, varints a byte at a time, one
// record per step — and shares no code with the decoders it checks. It
// returns every record a conforming reader delivers before it stops, and
// the error it stops with: nil at a clean end, else ErrBadMagic,
// ErrBadVersion, ErrTruncated or ErrCorrupt.
func refDecode(data []byte) ([]Ref, error) {
	switch {
	case len(data) == 0:
		return nil, ErrBadMagic
	case len(data) < 5:
		return nil, ErrTruncated
	case string(data[:4]) != "GTRC":
		return nil, ErrBadMagic
	case data[4] == 1:
		return refDecodeV1(data[5:])
	case data[4] == 2:
		return refDecodeV2(data[5:])
	}
	return nil, ErrBadVersion
}

// Format bounds of version 2: at most 65536 records per chunk, each at
// most a kind byte, a size byte and a 10-byte varint.
const (
	refMaxChunkRecs    = 1 << 16
	refMaxChunkPayload = refMaxChunkRecs * 12
)

// refUvarint reads one unsigned varint from b at *i. ok is false when b
// ends first; overflow is true when a tenth byte exceeds 1.
func refUvarint(b []byte, i *int) (v uint64, ok, overflow bool) {
	for j := 0; ; j++ {
		if *i == len(b) {
			return 0, false, false
		}
		c := b[*i]
		*i++
		if j == 9 && c > 1 {
			return 0, true, true
		}
		v |= uint64(c&0x7f) << (7 * j)
		if c < 0x80 {
			return v, true, false
		}
	}
}

// refUnzigzag maps a zigzag-encoded delta back to its two's-complement
// value.
func refUnzigzag(u uint64) uint64 {
	if u&1 == 0 {
		return u >> 1
	}
	return ^(u >> 1)
}

func refDecodeV1(b []byte) ([]Ref, error) {
	var refs []Ref
	var last [3]uint64
	i := 0
	for i < len(b) {
		kind := b[i]
		i++
		if kind > 2 {
			return refs, ErrCorrupt
		}
		if i == len(b) {
			return refs, ErrTruncated
		}
		size := b[i]
		i++
		u, ok, overflow := refUvarint(b, &i)
		if overflow {
			return refs, ErrCorrupt
		}
		if !ok {
			return refs, ErrTruncated
		}
		last[kind] += refUnzigzag(u)
		refs = append(refs, Ref{Kind: Kind(kind), Addr: last[kind], Size: size})
	}
	return refs, nil
}

func refDecodeV2(b []byte) ([]Ref, error) {
	var refs []Ref
	var last [3]uint64
	i := 0
	// framing reads one varint of the chunk framing.
	framing := func() (uint64, error) {
		v, ok, overflow := refUvarint(b, &i)
		if overflow {
			return 0, ErrCorrupt
		}
		if !ok {
			return 0, ErrTruncated
		}
		return v, nil
	}
	// checksum reads the stored CRC32 and compares it with the checksum
	// of b[start:] up to it.
	checksum := func(start int) error {
		if len(b)-i < 4 {
			return ErrTruncated
		}
		want := crc32.ChecksumIEEE(b[start:i])
		got := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
		i += 4
		if got != want {
			return ErrCorrupt
		}
		return nil
	}
	for {
		start := i
		plen, err := framing()
		if err != nil {
			return refs, err
		}
		if plen == 0 {
			total, err := framing()
			if err != nil {
				return refs, err
			}
			if err := checksum(start); err != nil {
				return refs, err
			}
			if total != uint64(len(refs)) || i != len(b) {
				return refs, ErrCorrupt
			}
			return refs, nil
		}
		if plen > refMaxChunkPayload {
			return refs, ErrCorrupt
		}
		if uint64(len(b)-i) < plen {
			return refs, ErrTruncated
		}
		p := b[i : i+int(plen)]
		i += int(plen)
		cnt, err := framing()
		if err != nil {
			return refs, err
		}
		if err := checksum(start); err != nil {
			return refs, err
		}
		if cnt == 0 || cnt > refMaxChunkRecs {
			return refs, ErrCorrupt
		}
		pi := 0
		for r := uint64(0); r < cnt; r++ {
			if len(p)-pi < 2 {
				return refs, ErrCorrupt
			}
			kind, size := p[pi], p[pi+1]
			pi += 2
			if kind > 2 {
				return refs, ErrCorrupt
			}
			u, ok, overflow := refUvarint(p, &pi)
			if !ok || overflow {
				return refs, ErrCorrupt
			}
			last[kind] += refUnzigzag(u)
			// A chunk's last record must end its payload; if it does
			// not, the chunk is corrupt and that record is not delivered.
			if r == cnt-1 && pi != len(p) {
				return refs, ErrCorrupt
			}
			refs = append(refs, Ref{Kind: Kind(kind), Addr: last[kind], Size: size})
		}
	}
}

// errClass names the typed error err matches, for comparing decoders
// whose messages differ: "" for nil, the sentinel's text for the typed
// errors, and "untyped" for anything else.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range []error{ErrCorrupt, ErrTruncated, ErrBadMagic, ErrBadVersion} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "untyped"
}

// varintLengthRefs returns n references over all three kinds whose
// address deltas, as the Writer encodes them, cycle through every varint
// length from 1 to 10 bytes.
func varintLengthRefs(n int) []Ref {
	refs := make([]Ref, n)
	var last [numKinds]uint64
	for i := range refs {
		k := Kind(i / 10 % int(numKinds))
		l := i%10 + 1
		delta := uint64(1)
		if l > 1 {
			delta = 1 << (7*l - 8) // zigzag 1<<(7l-7): exactly l bytes
		}
		if i%7 == 3 {
			delta = -delta // negative deltas, one byte shorter or equal
		}
		last[k] += delta
		refs[i] = Ref{Kind: k, Addr: last[k], Size: uint8(1 << (i % 4))}
	}
	return refs
}
