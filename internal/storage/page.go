// Package storage implements the on-disk graph representation of §3.2: each
// (v, n(v)) record is stored in slotted pages, in id order, with adjacency
// lists larger than one page occupying a run of consecutive pages. A vertex
// directory maps every vertex to the first page of its record, and a page
// directory marks which pages begin a new record (so page ranges can be
// aligned to record boundaries).
//
// Neighbor payloads are encoded through a pluggable Codec (see codec.go).
// Because codecs may be variable-width, a record's page span is a write-time
// fact recorded in the directories — spans are always derived from the page
// directory (Store.SpanOf / Store.AlignedRange), never recomputed from the
// degree.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Page kinds.
const (
	kindSlotted  = 0 // one or more complete records
	kindRunStart = 1 // first page of an oversized record
	kindRunCont  = 2 // continuation page of an oversized record
)

// pageHeaderSize is the fixed per-page header: numRecords (uint16),
// kind (uint8), pad (uint8), valCount (uint32; the number of neighbor
// values in this page for run pages that record it — see Codec.countedRuns).
const pageHeaderSize = 8

// recHeaderSize is the per-record header inside a page: vertex id (uint32)
// and degree (uint32).
const recHeaderSize = 8

// MinPageSize is the smallest page size any codec supports: header plus one
// record header plus one raw neighbor. Variable-width codecs may require
// slightly more; see MinPageSizeFor.
const MinPageSize = pageHeaderSize + recHeaderSize + 4

// VertexRec is a decoded (v, n(v)) record. Adj sub-slices the decode arena.
type VertexRec struct {
	ID  uint32
	Adj []uint32
}

// Errors returned by the page decoder.
var (
	ErrCorruptPage  = errors.New("storage: corrupt page")
	ErrMisaligned   = errors.New("storage: page range starts inside a record run")
	ErrTruncatedRun = errors.New("storage: page range ends inside a record run")
)

func putUint32(b []byte, x uint32) { binary.LittleEndian.PutUint32(b, x) }
func getUint32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }

// pageWriter incrementally encodes records into fixed-size pages through a
// codec. With a sink set, pages stream out as they fill (bounded memory);
// otherwise they accumulate in pages/firstRec.
type pageWriter struct {
	pageSize int
	codec    Codec
	cur      []byte
	curRecs  int
	curUsed  int
	curFirst uint32 // id of the first record starting in the current page
	pages    [][]byte
	firstRec []uint32 // per emitted page: id of first record starting there, or NoRecord
	emitted  uint32   // pages emitted so far (streamed or accumulated)
	sink     func(page []byte, firstRec uint32) error
	sinkErr  error
}

// NoRecord marks a page in which no record starts (a run continuation).
const NoRecord = ^uint32(0)

// newPageWriter requires pageSize >= MinPageSizeFor(c) so every run page
// holds at least one encoded value (callers validate before constructing).
func newPageWriter(pageSize int, c Codec) *pageWriter {
	return &pageWriter{pageSize: pageSize, codec: c}
}

func (w *pageWriter) payload() int { return w.pageSize - pageHeaderSize }

func (w *pageWriter) ensurePage() {
	if w.cur == nil {
		// make zeroes the page, so unused payload tails are zero on disk.
		w.cur = make([]byte, w.pageSize)
		w.curRecs = 0
		w.curUsed = pageHeaderSize
	}
}

func (w *pageWriter) flush(kind uint8, valCount uint32, firstRec uint32) {
	if w.cur == nil {
		return
	}
	binary.LittleEndian.PutUint16(w.cur[0:2], uint16(w.curRecs))
	w.cur[2] = kind
	putUint32(w.cur[4:8], valCount)
	w.emitted++
	if w.sink != nil {
		if err := w.sink(w.cur, firstRec); err != nil && w.sinkErr == nil {
			w.sinkErr = err
		}
		w.firstRec = append(w.firstRec, firstRec)
		w.cur = nil
		return
	}
	w.pages = append(w.pages, w.cur)
	w.firstRec = append(w.firstRec, firstRec)
	w.cur = nil
}

// appendRecord adds one (id, adj) record, emitting pages as they fill, and
// returns the index of the page where the record starts — the span of a
// record is a write-time fact recorded in the directories, not recomputable
// from the degree once codecs are variable-width.
func (w *pageWriter) appendRecord(id uint32, adj []uint32) uint32 {
	plen := w.codec.encodedLen(0, false, adj)
	if recHeaderSize+plen <= w.payload() {
		// Fits in a (possibly shared) slotted page.
		w.ensurePage()
		if w.curUsed+recHeaderSize+plen > w.pageSize {
			w.flush(kindSlotted, 0, w.pageFirst())
			w.ensurePage()
		}
		start := w.emitted
		if w.curRecs == 0 {
			w.curFirst = id
		}
		putUint32(w.cur[w.curUsed:], id)
		putUint32(w.cur[w.curUsed+4:], uint32(len(adj)))
		_, n := w.codec.encodeInto(w.cur[w.curUsed+recHeaderSize:w.pageSize], 0, false, adj)
		w.curUsed += recHeaderSize + n
		w.curRecs++
		return start
	}
	// Oversized record: close the current shared page, then emit a run.
	w.flush(kindSlotted, 0, w.pageFirst())
	start := w.emitted
	w.ensurePage()
	w.curFirst = id
	putUint32(w.cur[pageHeaderSize:], id)
	putUint32(w.cur[pageHeaderSize+4:], uint32(len(adj)))
	vals, _ := w.codec.encodeInto(w.cur[pageHeaderSize+recHeaderSize:w.pageSize], 0, false, adj)
	w.curRecs = 1
	var startCount uint32
	if w.codec.countedRuns() {
		startCount = uint32(vals)
	}
	w.flush(kindRunStart, startCount, id)
	prev := adj[vals-1] // vals >= 1: the page holds at least maxValBytes
	rest := adj[vals:]
	for len(rest) > 0 {
		w.ensurePage()
		n, _ := w.codec.encodeInto(w.cur[pageHeaderSize:w.pageSize], prev, true, rest)
		w.flush(kindRunCont, uint32(n), NoRecord)
		prev = rest[n-1]
		rest = rest[n:]
	}
	return start
}

func (w *pageWriter) pageFirst() uint32 {
	if w.curRecs == 0 {
		return NoRecord
	}
	return w.curFirst
}

// finish flushes any partial page and returns pages plus the per-page
// first-record directory (the pages slice is nil in sink mode).
func (w *pageWriter) finish() ([][]byte, []uint32) {
	if w.cur != nil && w.curRecs > 0 {
		w.flush(kindSlotted, 0, w.pageFirst())
	} else {
		w.cur = nil
	}
	return w.pages, w.firstRec
}

// DecodeRangeAppend decodes the records of a contiguous span of raw pages
// (len(data) must be a multiple of pageSize) under the given codec,
// appending records onto dst and neighbor values onto arena. The span must
// begin at a record boundary and must not cut a record run short; use
// Store.AlignedRange to obtain such spans. Each returned record's Adj sub-slices the returned
// arena, so callers recycling both slices across reads allocate nothing at
// steady state. On error the records decoded so far are still returned
// (with valid Adj views) alongside the error.
func DecodeRangeAppend(dst []VertexRec, arena []uint32, c Codec, pageSize int, data []byte) ([]VertexRec, []uint32, error) {
	nDst, base := len(dst), len(arena)
	out, arena, err := decodeRange(dst, arena, c, pageSize, data)
	// The arena may have been reallocated mid-decode, so records are
	// repointed into its final backing here: segments are contiguous from
	// base, and each record's segment length survives reallocation.
	off := base
	for i := nDst; i < len(out); i++ {
		n := len(out[i].Adj)
		out[i].Adj = arena[off : off+n : off+n]
		off += n
	}
	return out, arena, err
}

// decodeVals appends count values decoded from src onto arena. count comes
// from the page, so it is held against the payload before the arena grows —
// a hostile degree is an error, never the size of an allocation — and the
// arena is then sized once and the codec fills it in place.
func decodeVals(c Codec, arena []uint32, src []byte, count uint32, prev uint32, cont bool) ([]uint32, int, error) {
	if uint64(count)*uint64(c.minValBytes()) > uint64(len(src)) {
		return arena, 0, fmt.Errorf("%w: %d neighbors exceed %d payload bytes", ErrCorruptPage, count, len(src))
	}
	end := len(arena) + int(count)
	grown := slices.Grow(arena, int(count))[:end]
	n, err := c.decodeInto(grown[len(arena):], src, prev, cont)
	if err != nil {
		return arena, n, err
	}
	return grown, n, nil
}

func decodeRange(out []VertexRec, arena []uint32, c Codec, pageSize int, data []byte) ([]VertexRec, []uint32, error) {
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
				deg := getUint32(page[off+4:])
				off += recHeaderSize
				aStart := len(arena)
				var n int
				var err error
				arena, n, err = decodeVals(c, arena, page[off:], deg, 0, false)
				if err != nil {
					return out, arena, fmt.Errorf("record body of vertex %d: %w", id, err)
				}
				off += n
				out = append(out, VertexRec{ID: id, Adj: arena[aStart:len(arena)]})
			}
		case kindRunStart:
			id := getUint32(page[pageHeaderSize:])
			deg := getUint32(page[pageHeaderSize+4:])
			payload := page[pageHeaderSize+recHeaderSize:]
			count := deg
			if c.countedRuns() {
				count = getUint32(page[4:8])
				if count > deg {
					return out, arena, fmt.Errorf("%w: run start holds %d of %d neighbors", ErrCorruptPage, count, deg)
				}
			} else if max := uint32(len(payload) / c.maxValBytes()); count > max {
				count = max
			}
			aStart := len(arena)
			var err error
			arena, _, err = decodeVals(c, arena, payload, count, 0, false)
			if err != nil {
				return out, arena, fmt.Errorf("run start of vertex %d: %w", id, err)
			}
			// Consume continuation pages, carrying the delta chain across
			// page boundaries.
			for pending := deg - count; pending > 0; {
				p++
				if p >= numPages {
					return out, arena, fmt.Errorf("%w: vertex %d needs %d more neighbors", ErrTruncatedRun, id, pending)
				}
				page = data[p*pageSize : (p+1)*pageSize]
				if page[2] != kindRunCont {
					return out, arena, fmt.Errorf("%w: expected continuation page", ErrCorruptPage)
				}
				n := getUint32(page[4:8])
				if n > pending {
					return out, arena, fmt.Errorf("%w: continuation holds %d of %d pending neighbors", ErrCorruptPage, n, pending)
				}
				var prev uint32
				cont := false
				if len(arena) > aStart {
					prev, cont = arena[len(arena)-1], true
				}
				arena, _, err = decodeVals(c, arena, page[pageHeaderSize:], n, prev, cont)
				if err != nil {
					return out, arena, fmt.Errorf("run continuation of vertex %d: %w", id, err)
				}
				pending -= n
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
