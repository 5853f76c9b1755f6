package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// TestHostileDegreeDoesNotAllocate hands the decoder a 4 KB page whose
// record header, run-start count or continuation count claims 2³²−1
// neighbors: the count is held against the payload before anything is
// sized, so the answer is ErrCorruptPage and next to no memory — not an
// arena grown until the bytes run out.
func TestHostileDegreeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const pageSize = 4096
	const hostile = 1<<32 - 1
	page := func(kind uint8, valCount uint32) []byte {
		p := make([]byte, pageSize) // a zero payload is 4080 valid one-byte varints
		binary.LittleEndian.PutUint16(p[0:], 1)
		p[2] = kind
		putUint32(p[4:], valCount)
		return p
	}
	slotted := page(kindSlotted, 0)
	putUint32(slotted[pageHeaderSize+4:], hostile)
	runStart := page(kindRunStart, hostile)
	putUint32(runStart[pageHeaderSize+4:], hostile)
	emptyStart := page(kindRunStart, 0)
	putUint32(emptyStart[pageHeaderSize+4:], hostile)
	runCont := append(emptyStart[:pageSize:pageSize], page(kindRunCont, hostile)...)

	for _, tc := range []struct {
		name  string
		codec Codec
		data  []byte
	}{
		{"slotted/raw", rawCodecInst, slotted},
		{"slotted/deltavarint", deltaCodecInst, slotted},
		{"run-start/deltavarint", deltaCodecInst, runStart},
		{"run-continuation/deltavarint", deltaCodecInst, runCont},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			recs, _, err := DecodeRangeAppend(nil, nil, tc.codec, pageSize, tc.data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorruptPage) || len(recs) != 0 {
				t.Fatalf("decode = (%d records, %v), want ErrCorruptPage and none", len(recs), err)
			}
			// The error values are a few hundred bytes; the 4080 values the
			// payload could be read as would be 16 KB and the growth to it.
			if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
				t.Fatalf("decoding a hostile count allocated %d bytes, want < 8 KB", got)
			}
		})
	}
}

// TestStoreBytesPinned pins the on-disk page bytes of one fixed store per
// codec: the SHA-256 of the data region, computed before the decoders were
// rewritten. The format has no version to bump for a silent change of what
// the writer emits; this is what notices one.
func TestStoreBytesPinned(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for codec, want := range map[string]string{
		CodecRaw:         "5a8be20300bf400a1ff274cd841e97480cc05f216fd36e70a6097bc9df895719",
		CodecDeltaVarint: "0568bfeaeab5b989bfe991fe491a734aa60312d4eb5cfe713ca8aeaacff8a631",
	} {
		s := buildAndOpenCodec(t, g, 1024, codec)
		file, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(file[s.dataOffset:])
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: data region of %d pages hashes to %s, pinned %s", codec, s.NumPages, got, want)
		}
	}
}

// TestOpenChecksDirectories corrupts one directory entry of a valid store at
// a time: Open must name the directory, not hand out a Store whose
// FirstPageOf / FirstRecordOf answers index out of range later, or whose
// successor directory promises more ids than a list holds.
func TestOpenChecksDirectories(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(256, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	path := filepath.Join(t.TempDir(), "g.optstore")
	s, err := BuildFileCodec(path, g, 128, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	vertexDir := func(v int) int { return headerSize + 12*v }
	pageDir := func(p int) int { return headerSize + 12*s.NumVertices + 4*p }
	contPage := -1
	for p := range s.pageFirst {
		if s.pageFirst[p] == NoRecord {
			contPage = p
			break
		}
	}
	if contPage < 0 {
		t.Fatal("fixture has no continuation page")
	}
	for _, tc := range []struct {
		name string
		off  int
		val  uint32
	}{
		{"vertex beyond the store", vertexDir(10), s.NumPages},
		{"vertex directory decreases", vertexDir(s.NumVertices - 1), 0},
		{"page 0 starts no record", pageDir(0), NoRecord},
		{"page starts beyond |V|", pageDir(int(s.NumPages) - 1), uint32(s.NumVertices)},
		{"page directory decreases", pageDir(contPage), 0},
		{"successors beyond the degree", vertexDir(10) + 8, s.degree[10] + 1},
		{"successors do not sum to |E|", vertexDir(s.NumVertices-1) + 8, s.succ[s.NumVertices-1] + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(data[tc.off:], tc.val)
			p := filepath.Join(t.TempDir(), "bad.optstore")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(p)
			if !errors.Is(err, ErrCorruptDirectory) || !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("Open = %v, want ErrCorruptDirectory (an ErrCorruptPage)", err)
			}
		})
	}
}

// TestDecodeChecksRecords holds Store.DecodeAt to the directories. A clean
// span decodes, and DecodeAppend onto the records of another span checks
// only what it appended; then each case patches one thing of a valid store
// — a directory entry, or a neighbor id past |V| in raw page bytes, or two
// neighbors swapped by the writer — and the span must read ErrCorruptPage.
func TestDecodeChecksRecords(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(256, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			s := buildAndOpenCodec(t, g, 128, codec)
			dev, err := s.Device()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dev.Close() }()
			data, err := dev.ReadPages(0, int(s.NumPages))
			if err != nil {
				t.Fatal(err)
			}
			ps := s.PageSize
			mid := uint32(s.AlignedRange(0, int(s.NumPages)/2))
			recs, arena, err := s.DecodeAppend(nil, nil, data[:int(mid)*ps])
			if err == nil {
				recs, _, err = s.DecodeAppend(recs, arena, data[int(mid)*ps:])
			}
			if err != nil || len(recs) != s.NumVertices {
				t.Fatalf("two clean halves: %d records, %v", len(recs), err)
			}

			// The one-page chunk at mid, the vertex whose record starts it, and
			// the chunk's first vertex with ids on both sides of it.
			v := s.FirstRecordOf(mid)
			one := data[int(mid)*ps : int(mid)*ps+s.AlignedRange(mid, 1)*ps]
			// The clean span is still the wrong one at any other page.
			if _, _, err := s.DecodeAt(nil, nil, mid, one); err != nil {
				t.Fatalf("the span of page %d: %v", mid, err)
			}
			if _, _, err := s.DecodeAt(nil, nil, 0, one); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("the span of page %d read as page 0: %v, want ErrCorruptPage", mid, err)
			}
			split := v
			for split < s.FirstRecordOf(mid+uint32(s.AlignedRange(mid, 1))) && (s.succ[split] == 0 || s.succ[split] == s.degree[split]) {
				split++
			}
			if split == s.FirstRecordOf(mid+uint32(s.AlignedRange(mid, 1))) {
				t.Fatal("no record of the chunk has neighbors on both sides")
			}
			for _, tc := range []struct {
				name  string
				patch func(c *Store)
				data  []byte
			}{
				{"degree directory", func(c *Store) { c.degree[v]++ }, one},
				{"first record of the page", func(c *Store) { c.pageFirst[mid]-- }, one},
				{"first record after the span", func(c *Store) {
					next := mid + uint32(s.AlignedRange(mid, 1))
					c.pageFirst[next]++
				}, one},
				{"successor directory one long", func(c *Store) { c.succ[split]++ }, one},
				{"successor directory one short", func(c *Store) { c.succ[split]-- }, one},
			} {
				t.Run(tc.name, func(t *testing.T) {
					c := *s
					c.degree, c.pageFirst, c.succ = slices.Clone(s.degree), slices.Clone(s.pageFirst), slices.Clone(s.succ)
					tc.patch(&c)
					if _, _, err := c.DecodeAt(nil, nil, mid, tc.data); !errors.Is(err, ErrCorruptPage) {
						t.Fatalf("DecodeAt = %v, want ErrCorruptPage", err)
					}
				})
			}
			if codec == CodecRaw {
				t.Run("neighbor beyond |V|", func(t *testing.T) {
					page := slices.Clone(data[:ps])
					deg := getUint32(page[pageHeaderSize+4:])
					if deg == 0 {
						t.Fatal("the fixture's first record has no neighbor to patch")
					}
					putUint32(page[pageHeaderSize+recHeaderSize+4*int(deg-1):], NoRecord)
					if _, _, err := s.DecodeAt(nil, nil, 0, page); !errors.Is(err, ErrCorruptPage) {
						t.Fatalf("DecodeAt = %v, want ErrCorruptPage", err)
					}
				})
			}
			t.Run("unsorted list", func(t *testing.T) {
				// Two neighbors of the densest vertex, the last in degree
				// order, swapped in the graph the writer reads; Neighbors
				// aliases its storage.
				last := uint32(g.NumVertices() - 1)
				adj := g.Neighbors(last)
				adj[0], adj[1] = adj[1], adj[0]
				defer func() { adj[0], adj[1] = adj[1], adj[0] }()
				bad := buildAndOpenCodec(t, g, 128, codec)
				bdev, err := bad.Device()
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = bdev.Close() }()
				first := bad.FirstPageOf(last)
				span, err := bdev.ReadPages(first, bad.AlignedRange(first, 1))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := bad.DecodeAt(nil, nil, first, span); !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("DecodeAt = %v, want ErrCorruptPage", err)
				}
			})
		})
	}
}
