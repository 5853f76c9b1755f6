package storage

import (
	"encoding/binary"
	"fmt"
)

// The decoders as they stood before the sized, word-at-a-time ones: one
// append and one byte-at-a-time varint per value, the count checked only by
// running out of bytes. They are the oracle the differential fuzz targets
// and BenchmarkDecodePass hold the product's decoders against — same values,
// same bytes consumed, an error exactly where this one has one, the same
// records ahead of it.

// decodeReference appends exactly count values decoded from src onto dst,
// returning the grown slice and the bytes consumed.
func decodeReference(c Codec, dst []uint32, src []byte, count int, prev uint32, cont bool) ([]uint32, int, error) {
	if c.ID() == rawCodecInst.ID() {
		return decodeRawReference(dst, src, count, prev, cont)
	}
	return decodeDeltaVarintReference(dst, src, count, prev, cont)
}

func decodeRawReference(dst []uint32, src []byte, count int, _ uint32, _ bool) ([]uint32, int, error) {
	if count > len(src)/4 {
		return dst, 0, fmt.Errorf("%w: %d raw neighbors exceed %d payload bytes", ErrCorruptPage, count, len(src))
	}
	for i := 0; i < count; i++ {
		dst = append(dst, getUint32(src[4*i:]))
	}
	return dst, 4 * count, nil
}

func decodeDeltaVarintReference(dst []uint32, src []byte, count int, prev uint32, cont bool) ([]uint32, int, error) {
	off := 0
	for i := 0; i < count; i++ {
		d, n, err := uvarint32(src[off:])
		if err != nil {
			return dst, off, err
		}
		off += n
		v := d
		if cont {
			v = prev + d
		}
		dst = append(dst, v)
		prev, cont = v, true
	}
	return dst, off, nil
}

func decodeRangeReference(out []VertexRec, arena []uint32, c Codec, pageSize int, data []byte) ([]VertexRec, []uint32, error) {
	if len(data)%pageSize != 0 {
		return out, arena, fmt.Errorf("%w: %d bytes not page aligned", ErrCorruptPage, len(data))
	}
	numPages := len(data) / pageSize
	for p := 0; p < numPages; p++ {
		page := data[p*pageSize : (p+1)*pageSize]
		numRecs := int(binary.LittleEndian.Uint16(page[0:2]))
		kind := page[2]
		switch kind {
		case kindSlotted:
			off := pageHeaderSize
			for r := 0; r < numRecs; r++ {
				if off+recHeaderSize > pageSize {
					return out, arena, fmt.Errorf("%w: record header beyond page", ErrCorruptPage)
				}
				id := getUint32(page[off:])
				deg := int(getUint32(page[off+4:]))
				off += recHeaderSize
				aStart := len(arena)
				var n int
				var err error
				arena, n, err = decodeReference(c, arena, page[off:], deg, 0, false)
				if err != nil {
					return out, arena, fmt.Errorf("record body of vertex %d: %w", id, err)
				}
				off += n
				out = append(out, VertexRec{ID: id, Adj: arena[aStart:len(arena)]})
			}
		case kindRunStart:
			id := getUint32(page[pageHeaderSize:])
			deg := int(getUint32(page[pageHeaderSize+4:]))
			payload := page[pageHeaderSize+recHeaderSize:]
			count := deg
			if c.countedRuns() {
				count = int(getUint32(page[4:8]))
				if count > deg {
					return out, arena, fmt.Errorf("%w: run start holds %d of %d neighbors", ErrCorruptPage, count, deg)
				}
			} else if max := len(payload) / c.maxValBytes(); count > max {
				count = max
			}
			aStart := len(arena)
			var err error
			arena, _, err = decodeReference(c, arena, payload, count, 0, false)
			if err != nil {
				return out, arena, fmt.Errorf("run start of vertex %d: %w", id, err)
			}
			// Consume continuation pages, carrying the delta chain across
			// page boundaries.
			for len(arena)-aStart < deg {
				p++
				if p >= numPages {
					return out, arena, fmt.Errorf("%w: vertex %d needs %d more neighbors", ErrTruncatedRun, id, deg-(len(arena)-aStart))
				}
				page = data[p*pageSize : (p+1)*pageSize]
				if page[2] != kindRunCont {
					return out, arena, fmt.Errorf("%w: expected continuation page", ErrCorruptPage)
				}
				n := int(getUint32(page[4:8]))
				if n > deg-(len(arena)-aStart) {
					return out, arena, fmt.Errorf("%w: continuation holds %d of %d pending neighbors", ErrCorruptPage, n, deg-(len(arena)-aStart))
				}
				var prev uint32
				cont := false
				if len(arena) > aStart {
					prev, cont = arena[len(arena)-1], true
				}
				arena, _, err = decodeReference(c, arena, page[pageHeaderSize:], n, prev, cont)
				if err != nil {
					return out, arena, fmt.Errorf("run continuation of vertex %d: %w", id, err)
				}
			}
			out = append(out, VertexRec{ID: id, Adj: arena[aStart:len(arena)]})
		case kindRunCont:
			if p == 0 {
				return out, arena, ErrMisaligned
			}
			return out, arena, fmt.Errorf("%w: unexpected continuation page at offset %d", ErrCorruptPage, p)
		default:
			return out, arena, fmt.Errorf("%w: unknown page kind %d", ErrCorruptPage, kind)
		}
	}
	return out, arena, nil
}

// decodeRangeAppendReference is DecodeRangeAppend over the reference
// decoders, repointing the records the same way.
func decodeRangeAppendReference(dst []VertexRec, arena []uint32, c Codec, pageSize int, data []byte) ([]VertexRec, []uint32, error) {
	nDst, off := len(dst), len(arena)
	out, arena, err := decodeRangeReference(dst, arena, c, pageSize, data)
	for i := nDst; i < len(out); i++ {
		n := len(out[i].Adj)
		out[i].Adj = arena[off : off+n : off+n]
		off += n
	}
	return out, arena, err
}
