package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/graph"
)

// fuzzCodec maps a fuzzer-chosen byte onto a registered codec.
func fuzzCodec(sel byte) Codec {
	return codecsByID[int(sel)%len(codecsByID)]
}

// sameRecords reports how the records of the product's decoder differ from
// the reference's, or "" when they are the same ids and lists in order.
func sameRecords(got, want []VertexRec) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !slices.Equal(got[i].Adj, want[i].Adj) {
			return fmt.Sprintf("record %d is (%d, %v), reference has (%d, %v)", i, got[i].ID, got[i].Adj, want[i].ID, want[i].Adj)
		}
	}
	return ""
}

// diffDecodeRange decodes data with the product's decoder and with the
// reference and fails unless they agree on error-or-not and on the records
// returned — those ahead of the error included.
func diffDecodeRange(t *testing.T, c Codec, pageSize int, data []byte) ([]VertexRec, error) {
	t.Helper()
	got, _, err := DecodeRangeAppend(nil, nil, c, pageSize, data)
	want, _, refErr := decodeRangeAppendReference(nil, nil, c, pageSize, data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: decode error %v, reference error %v", c.Name(), err, refErr)
	}
	if diff := sameRecords(got, want); diff != "" {
		t.Fatalf("%s (error %v): %s", c.Name(), err, diff)
	}
	return got, err
}

// FuzzDecodeRange feeds arbitrary bytes to the page decoder under both
// codecs — as a page range, and as the payload of one record of count
// values continuing the chain (prev, sel's top bit) — next to the reference
// decoders: neither may panic, and they must agree on error-or-not, on the
// records (a failed range returns those ahead of the error), on the values
// and on the bytes consumed.
func FuzzDecodeRange(f *testing.F) {
	// Seed with real encoded pages from each codec.
	g := graph.PaperExample()
	for i, codec := range []string{CodecRaw, CodecDeltaVarint} {
		path := filepath.Join(f.TempDir(), "g.optstore")
		s, err := BuildFileCodec(path, g, 64, codec)
		if err != nil {
			f.Fatal(err)
		}
		dev, err := s.Device()
		if err != nil {
			f.Fatal(err)
		}
		data, err := dev.ReadPages(0, int(s.NumPages))
		_ = dev.Close()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 64, byte(i), uint16(3), uint32(0))
		f.Add(data[:64], 64, byte(i), uint16(64), uint32(7))
	}
	f.Add([]byte{}, 64, byte(0), uint16(0), uint32(0))
	f.Add(make([]byte, 128), 64, byte(1), uint16(128), uint32(0))
	// Varints of 3, 4 and 5 bytes among short ones, the overflowing
	// ff ff ff ff 7f, a truncated tail, and a count beyond the payload.
	long := []byte{0x05, 0x80, 0x80, 0x01, 0x81, 0x01, 0xff, 0xff, 0xff, 0x7f, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x03, 0x04, 0x85, 0x01, 0x06, 0x07}
	f.Add(long, 64, byte(1), uint16(10), uint32(0))
	f.Add(long, 64, byte(0x81), uint16(10), uint32(1<<31))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01, 0x01, 0x01, 0x01}, 64, byte(1), uint16(6), uint32(0))
	f.Add([]byte{0x81, 0x01, 0x82, 0x01, 0x83, 0x01, 0x84, 0x80}, 64, byte(0x81), uint16(4), uint32(9))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 64, byte(0), uint16(3), uint32(0))
	f.Add([]byte{1, 2, 3}, 64, byte(1), uint16(0xffff), uint32(0))

	f.Fuzz(func(t *testing.T, raw []byte, pageSize int, sel byte, count uint16, prev uint32) {
		if pageSize < MinPageSize || pageSize > 1<<16 {
			pageSize = 64
		}
		c := fuzzCodec(sel &^ 0x80)
		diffDecodeRange(t, c, pageSize, raw)

		cont := sel&0x80 != 0
		got, n, err := decodeVals(c, nil, raw, uint32(count), prev, cont)
		want, refN, refErr := decodeReference(c, nil, raw, int(count), prev, cont)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: %d values of % x: error %v, reference error %v", c.Name(), count, raw, err, refErr)
		}
		if err == nil && (n != refN || !slices.Equal(got, want)) {
			t.Fatalf("%s: %d values of % x: %v in %d bytes, reference has %v in %d", c.Name(), count, raw, got, n, want, refN)
		}
	})
}

// FuzzCodecRoundTrip drives arbitrary adjacency lists through the page
// writer and decoder of both codecs at a fuzzer-chosen page size: encode
// followed by decode must reproduce the records exactly (the deltavarint
// wraparound arithmetic is total, so even unsorted lists round-trip), and
// the reference decoders must read the same pages the same way.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, 64)
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 255, 255, 255, 255}, MinPageSize)
	f.Add([]byte{9, 9, 9, 9, 1, 1, 1, 1}, 4096)
	// Deltas of every varint length, ascending and wrapping: at a 64-byte
	// page the second list is a run continued across pages, and its long
	// values land on the last eight bytes of one.
	var lens []byte
	for _, x := range []uint32{3, 1 << 7, 1 << 14, 1<<14 + 1, 1 << 21, 1 << 28, 1<<32 - 1, 5,
		100, 200, 1 << 15, 1<<15 + 127, 1<<15 + 128, 1 << 22, 1<<22 + 1<<14, 1 << 29, 1<<29 + 1, 1<<29 + 2, 1<<29 + 3, 1<<29 + 1<<21, 1 << 30, 1<<30 + 1} {
		lens = binary.LittleEndian.AppendUint32(lens, x)
	}
	f.Add(lens, 64)
	f.Add(lens, 29)
	f.Add(lens, 4096)

	f.Fuzz(func(t *testing.T, raw []byte, pageSize int) {
		var adj []uint32
		for len(raw) >= 4 {
			adj = append(adj, binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
		}
		// Two records exercise both slotted sharing and run splitting.
		recs := []VertexRec{
			{ID: 7, Adj: adj[:len(adj)/2]},
			{ID: 8, Adj: adj[len(adj)/2:]},
		}
		for _, c := range codecsByID {
			ps := pageSize
			if min := MinPageSizeFor(c); ps < min || ps > 1<<13 {
				ps = min
			}
			w := newPageWriter(ps, c)
			for _, r := range recs {
				w.appendRecord(r.ID, r.Adj)
			}
			pages, _ := w.finish()
			var data []byte
			for _, p := range pages {
				data = append(data, p...)
			}
			got, err := diffDecodeRange(t, c, ps, data)
			if err != nil {
				t.Fatalf("%s: decode of freshly encoded pages: %v", c.Name(), err)
			}
			if diff := sameRecords(got, recs); diff != "" {
				t.Fatalf("%s: %s", c.Name(), diff)
			}
		}
	})
}

// FuzzOpenStore feeds Open arbitrary bytes, and valid stores with a few
// bytes overwritten (an empty raw selects one of the two valid stores by
// off's parity; patch lands at off): Open must reject or parse without
// panicking, and every answer of a store that opened must be in range —
// FirstPageOf and SpanOf inside the store, the aligned ranges from page 0
// covering it with non-empty steps, and each range's
// [FirstRecordOf(lo), FirstRecordOf(hi)) an ascending slice of the vertices.
func FuzzOpenStore(f *testing.F) {
	g := graph.PaperExample()
	var valids [][]byte
	for _, codec := range []string{CodecRaw, CodecDeltaVarint} {
		path := filepath.Join(f.TempDir(), "g.optstore")
		s, err := BuildFileCodec(path, g, 64, codec)
		if err != nil {
			f.Fatal(err)
		}
		valid, err := readFile(path)
		if err != nil {
			f.Fatal(err)
		}
		valids = append(valids, valid)
		f.Add(valid, uint32(0), []byte{})
		f.Add(valid[:40], uint32(0), []byte{})
		// One directory entry at a time: a vertex's first page, then a
		// page's first record, pushed out of range and out of order.
		i := uint32(len(valids) - 1)
		vertexDir, pageDir := uint32(headerSize), uint32(headerSize+8*s.NumVertices)
		f.Add([]byte{}, vertexDir+8*2+i, []byte{0xff, 0xff})
		f.Add([]byte{}, vertexDir+8*uint32(s.NumVertices-1)+i, []byte{0})
		f.Add([]byte{}, pageDir+i, []byte{0xff, 0xff, 0xff, 0xff})
		f.Add([]byte{}, pageDir+4*(s.NumPages-1)+i, []byte{0xff, 0xff, 0xff, 0x7f})
		f.Add([]byte{}, 16+i, []byte{0xff}) // the header's vertex count
	}
	f.Add([]byte("OPTSTOR1garbage"), uint32(0), []byte{})
	f.Add([]byte("OPTSTOR2garbage"), uint32(0), []byte{})
	f.Add([]byte("OPTSTOR9garbage"), uint32(0), []byte{})
	f.Add([]byte{}, uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, raw []byte, off uint32, patch []byte) {
		if len(raw) == 0 {
			raw = slices.Clone(valids[off%2])
		}
		if int(off) < len(raw) {
			copy(raw[off:], patch)
		}
		p := filepath.Join(t.TempDir(), "fuzz.optstore")
		if err := writeFile(p, raw); err != nil {
			t.Skip()
		}
		s, err := Open(p)
		if err != nil {
			return
		}
		for v := 0; v < s.NumVertices; v++ {
			first, span := s.FirstPageOf(uint32(v)), s.SpanOf(uint32(v))
			if first >= s.NumPages || span < 1 || int64(first)+int64(span) > int64(s.NumPages) {
				t.Fatalf("vertex %d: pages [%d,+%d) of %d", v, first, span, s.NumPages)
			}
			_ = s.DegreeOf(uint32(v))
		}
		next := uint32(0)
		for pg := uint32(0); pg < s.NumPages; {
			n := s.AlignedRange(pg, 1)
			if n < 1 || int64(pg)+int64(n) > int64(s.NumPages) {
				t.Fatalf("AlignedRange(%d, 1) = %d of %d pages", pg, n, s.NumPages)
			}
			lo, hi := s.FirstRecordOf(pg), s.FirstRecordOf(pg+uint32(n))
			if lo < next || lo > hi || int(hi) > s.NumVertices {
				t.Fatalf("pages [%d,+%d) cover vertices [%d,%d) of %d, previous range ended at %d", pg, n, lo, hi, s.NumVertices, next)
			}
			next = hi
			pg += uint32(n)
		}
	})
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
