package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A Codec encodes the neighbor payload of a record into page bytes and back.
// Two codecs exist: raw (fixed 4-byte little-endian neighbors, bit-identical
// to the v1 format) and deltavarint (each neighbor stored as the uvarint of
// its difference from the previous one, exploiting the sorted-ascending
// adjacency invariant; the first value of a record is stored absolutely).
//
// Codecs are stateless and safe for concurrent use. Encoding is incremental
// so the page writer can split oversized records across run pages: the
// (prev, cont) pair seeds the delta chain, which continues across page
// boundaries within a run. The interface is sealed — codecs are identified
// elsewhere by name (see CodecByName) or by the id stored in the v2 header.
type Codec interface {
	// Name is the stable external name ("raw", "deltavarint").
	Name() string
	// ID is the identifier written into the OPTSTOR2 header.
	ID() uint16

	// countedRuns reports whether run pages record their value count in the
	// page header. Raw pages derive counts from the fixed value width so v1
	// pages stay bit-identical; variable-width codecs cannot.
	countedRuns() bool
	// maxValBytes is the worst-case encoded size of a single value, used to
	// size the per-codec minimum page (every run page must make progress).
	maxValBytes() int
	// minValBytes is the smallest encoded size of a single value: n values
	// occupy at least n*minValBytes payload bytes, which is how the page
	// decoder bounds a count read from a page before it sizes anything.
	minValBytes() int
	// encodedLen returns the exact payload size of encoding adj with the
	// chain seeded by (prev, cont).
	encodedLen(prev uint32, cont bool, adj []uint32) int
	// encodeInto encodes as many leading values of adj as fit in dst,
	// returning how many values were consumed and how many bytes written.
	encodeInto(dst []byte, prev uint32, cont bool, adj []uint32) (vals, n int)
	// decodeInto fills dst with len(dst) values decoded from src, the chain
	// seeded by (prev, cont), and returns the bytes consumed (up to the
	// failing value on error). The caller has checked that src holds
	// len(dst)·minValBytes bytes (decodeVals). Errors wrap ErrCorruptPage;
	// arbitrary input must never panic.
	decodeInto(dst []uint32, src []byte, prev uint32, cont bool) (int, error)
}

// Codec names accepted by CodecByName and the -codec CLI flags.
const (
	CodecRaw         = "raw"
	CodecDeltaVarint = "deltavarint"
)

// Named errors for header and directory validation (see Open).
var (
	// ErrUnknownVersion is returned when a store header carries a version
	// this build does not understand.
	ErrUnknownVersion = errors.New("storage: unknown store version")
	// ErrUnknownCodec is returned for an unregistered codec name or id.
	ErrUnknownCodec = errors.New("storage: unknown page codec")
	// ErrCorruptDirectory is returned for a vertex or page directory that
	// cannot be that of records stored in id order; it is an ErrCorruptPage
	// to errors.Is.
	ErrCorruptDirectory = fmt.Errorf("%w directory", ErrCorruptPage)
)

var (
	rawCodecInst   = rawCodec{}
	deltaCodecInst = deltaVarintCodec{}

	// codecsByID is indexed by the id stored in the v2 header.
	codecsByID = []Codec{rawCodecInst, deltaCodecInst}
)

// Codecs returns the registered codec names in id order.
func Codecs() []string {
	out := make([]string, len(codecsByID))
	for i, c := range codecsByID {
		out[i] = c.Name()
	}
	return out
}

// CodecByName resolves a codec name ("" selects raw). Unknown names return
// an error wrapping ErrUnknownCodec.
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return rawCodecInst, nil
	}
	for _, c := range codecsByID {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, name, Codecs())
}

// codecByID resolves the codec id stored in a v2 header.
func codecByID(id uint16) (Codec, error) {
	if int(id) < len(codecsByID) {
		return codecsByID[id], nil
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
}

// MinPageSizeFor returns the smallest page size the codec supports: the page
// header, one record header, and one worst-case encoded value, so every run
// page is guaranteed to hold at least one neighbor.
func MinPageSizeFor(c Codec) int {
	min := pageHeaderSize + recHeaderSize + c.maxValBytes()
	if min < MinPageSize {
		min = MinPageSize
	}
	return min
}

// rawCodec stores neighbors as fixed 4-byte little-endian values — the v1
// page format, bit for bit.
type rawCodec struct{}

func (rawCodec) Name() string      { return CodecRaw }
func (rawCodec) ID() uint16        { return 0 }
func (rawCodec) countedRuns() bool { return false }
func (rawCodec) maxValBytes() int  { return 4 }
func (rawCodec) minValBytes() int  { return 4 }

func (rawCodec) encodedLen(_ uint32, _ bool, adj []uint32) int { return 4 * len(adj) }

func (rawCodec) encodeInto(dst []byte, _ uint32, _ bool, adj []uint32) (int, int) {
	n := len(dst) / 4
	if n > len(adj) {
		n = len(adj)
	}
	for i := 0; i < n; i++ {
		putUint32(dst[4*i:], adj[i])
	}
	return n, 4 * n
}

// decodeInto is a sized copy, two values to an 8-byte load.
func (rawCodec) decodeInto(dst []uint32, src []byte, _ uint32, _ bool) (int, error) {
	n := 4 * len(dst)
	for len(dst) >= 2 && len(src) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		dst[0], dst[1] = uint32(w), uint32(w>>32)
		dst, src = dst[2:], src[8:]
	}
	if len(dst) == 1 && len(src) >= 4 {
		dst[0] = getUint32(src)
	}
	return n, nil
}

// deltaVarintCodec stores the first value of a record as an absolute
// uvarint and every subsequent value as uvarint(v - prev) with uint32
// wraparound. Sorted ascending lists (the graph invariant) give small
// deltas and 1–2 byte encodings; arbitrary lists still round-trip because
// the wraparound subtraction is total.
type deltaVarintCodec struct{}

// maxUvarint32Len is the worst-case uvarint size of a 32-bit value.
const maxUvarint32Len = 5

func (deltaVarintCodec) Name() string      { return CodecDeltaVarint }
func (deltaVarintCodec) ID() uint16        { return 1 }
func (deltaVarintCodec) countedRuns() bool { return true }
func (deltaVarintCodec) maxValBytes() int  { return maxUvarint32Len }
func (deltaVarintCodec) minValBytes() int  { return 1 }

// uvarint32Len returns the encoded size of x.
func uvarint32Len(x uint32) int {
	switch {
	case x < 1<<7:
		return 1
	case x < 1<<14:
		return 2
	case x < 1<<21:
		return 3
	case x < 1<<28:
		return 4
	}
	return maxUvarint32Len
}

// putUvarint32 writes x at dst[0:] and returns the bytes written. dst must
// have room for uvarint32Len(x) bytes.
func putUvarint32(dst []byte, x uint32) int {
	i := 0
	for x >= 0x80 {
		dst[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	dst[i] = byte(x)
	return i + 1
}

// uvarint32 reads one uvarint from src, rejecting encodings that overflow
// 32 bits or run past the buffer.
func uvarint32(src []byte) (uint32, int, error) {
	var x uint64
	var shift uint
	for i := 0; i < len(src) && i < maxUvarint32Len; i++ {
		b := src[i]
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if x > 1<<32-1 {
				return 0, 0, fmt.Errorf("%w: varint overflows uint32", ErrCorruptPage)
			}
			return uint32(x), i + 1, nil
		}
		shift += 7
	}
	return 0, 0, fmt.Errorf("%w: truncated varint", ErrCorruptPage)
}

func (deltaVarintCodec) encodedLen(prev uint32, cont bool, adj []uint32) int {
	n := 0
	for _, x := range adj {
		if cont {
			n += uvarint32Len(x - prev)
		} else {
			n += uvarint32Len(x)
			cont = true
		}
		prev = x
	}
	return n
}

func (deltaVarintCodec) encodeInto(dst []byte, prev uint32, cont bool, adj []uint32) (int, int) {
	vals, off := 0, 0
	for _, x := range adj {
		d := x
		if cont {
			d = x - prev
		}
		l := uvarint32Len(d)
		if off+l > len(dst) {
			break
		}
		putUvarint32(dst[off:], d)
		off += l
		prev, cont = x, true
		vals++
	}
	return vals, off
}

// short2 decodes the varint at the low end of w as if it were one or two
// bytes long, without branching on which: c, the continuation bit of the
// first byte, is the length less one and selects the second byte's seven
// bits into d. Bit 14 of d (longVarint) is then the second byte's own
// continuation bit — set when the varint is longer and d is not its value.
func short2(w uint64) (d, c uint64) {
	c = w >> 7 & 1
	return w&0x7f | w>>1&0x7f80&-c, c
}

const longVarint = 1 << 14

// decodeInto takes four values from one 8-byte load while that many values
// and bytes remain, then one from a 2-byte load: every delta below 2¹⁴ —
// nearly all of a sorted list — decodes with no branch on its length (see
// short2). A longer value and the last byte of a page go through uvarint32,
// which also owns the overflow and truncation errors.
func (deltaVarintCodec) decodeInto(dst []uint32, src []byte, prev uint32, cont bool) (int, error) {
	if !cont {
		prev = 0 // the first value of a record is absolute
	}
	off := 0
	for i := 0; i < len(dst); {
		if i+4 <= len(dst) && off+8 <= len(src) {
			w := binary.LittleEndian.Uint64(src[off:])
			d0, c0 := short2(w)
			w = w >> 8 >> (8 * c0)
			d1, c1 := short2(w)
			w = w >> 8 >> (8 * c1)
			d2, c2 := short2(w)
			w = w >> 8 >> (8 * c2)
			d3, c3 := short2(w)
			if (d0|d1|d2|d3)&longVarint == 0 {
				v0 := prev + uint32(d0)
				v1 := v0 + uint32(d1)
				v2 := v1 + uint32(d2)
				v3 := v2 + uint32(d3)
				d := dst[i : i+4 : i+4]
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
				prev = v3
				off += 4 + int(c0+c1+c2+c3)
				i += 4
				continue
			}
		}
		if off+2 <= len(src) {
			if d, c := short2(uint64(binary.LittleEndian.Uint16(src[off:]))); d&longVarint == 0 {
				prev += uint32(d)
				dst[i] = prev
				off += 1 + int(c)
				i++
				continue
			}
		}
		d, n, err := uvarint32(src[off:])
		if err != nil {
			return off, err
		}
		off += n
		prev += d
		dst[i] = prev
		i++
	}
	return off, nil
}
