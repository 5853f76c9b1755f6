package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
)

// codecNames is the codec axis shared by the parameterized tests.
var codecNames = []string{CodecRaw, CodecDeltaVarint}

// buildAndOpen round-trips g through a raw-codec store file and returns the
// reopened store.
func buildAndOpen(t *testing.T, g *graph.Graph, pageSize int) *Store {
	return buildAndOpenCodec(t, g, pageSize, CodecRaw)
}

func buildAndOpenCodec(t *testing.T, g *graph.Graph, pageSize int, codec string) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.optstore")
	built, err := BuildFileCodec(path, g, pageSize, codec)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if opened.NumVertices != built.NumVertices || opened.NumPages != built.NumPages ||
		opened.NumEdges != built.NumEdges || opened.PageSize != built.PageSize {
		t.Fatalf("reopened store differs: %+v vs %+v", opened, built)
	}
	if opened.CodecName() != codec || opened.Version() != storeVersionV3 {
		t.Fatalf("reopened store codec/version = %s/v%d, want %s/v%d",
			opened.CodecName(), opened.Version(), codec, storeVersionV3)
	}
	if !slices.Equal(opened.succ, built.succ) {
		t.Fatal("reopened successor directory differs from the built one")
	}
	return opened
}

// readAll decodes the full store through its device and returns adjacency
// lists keyed by vertex.
func readAll(t *testing.T, s *Store) map[uint32][]uint32 {
	t.Helper()
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	if dev.NumPages() < s.NumPages {
		t.Fatalf("device has %d pages, store says %d", dev.NumPages(), s.NumPages)
	}
	data, err := dev.ReadPages(0, int(s.NumPages))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := s.DecodeAt(nil, nil, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32][]uint32, len(recs))
	for _, r := range recs {
		if _, dup := out[r.ID]; dup {
			t.Fatalf("vertex %d decoded twice", r.ID)
		}
		out[r.ID] = r.Adj
	}
	return out
}

func verifyMatchesGraph(t *testing.T, g *graph.Graph, s *Store) {
	t.Helper()
	adj := readAll(t, s)
	if len(adj) != g.NumVertices() {
		t.Fatalf("decoded %d vertices, want %d", len(adj), g.NumVertices())
	}
	for v := 0; v < g.NumVertices(); v++ {
		want := g.Neighbors(graph.VertexID(v))
		got := adj[uint32(v)]
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: decoded %v, want %v", v, got, want)
		}
	}
	// Directory agrees with decode.
	for v := 0; v < g.NumVertices(); v++ {
		if s.DegreeOf(graph.VertexID(v)) != g.Degree(graph.VertexID(v)) {
			t.Fatalf("DegreeOf(%d) = %d, want %d", v, s.DegreeOf(graph.VertexID(v)), g.Degree(graph.VertexID(v)))
		}
		above := 0
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if w > uint32(v) {
				above++
			}
		}
		if s.SuccOf(graph.VertexID(v)) != above {
			t.Fatalf("SuccOf(%d) = %d, want %d", v, s.SuccOf(graph.VertexID(v)), above)
		}
	}
}

func TestStoreRoundtripPaperExample(t *testing.T) {
	g := graph.PaperExample()
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			c, err := CodecByName(codec)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range []int{MinPageSizeFor(c), 64, 128, 4096} {
				s := buildAndOpenCodec(t, g, ps, codec)
				verifyMatchesGraph(t, g, s)
			}
		})
	}
}

func TestStoreRoundtripRandom(t *testing.T) {
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 5; trial++ {
				n := 50 + rng.Intn(200)
				b := graph.NewBuilder(n)
				m := rng.Intn(2000)
				for i := 0; i < m; i++ {
					_ = b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
				}
				g := b.Build()
				s := buildAndOpenCodec(t, g, 128, codec)
				verifyMatchesGraph(t, g, s)
			}
		})
	}
}

func TestStoreOversizedRecords(t *testing.T) {
	// A star hub with degree 500 forces multi-page runs at page size 64
	// under both codecs.
	g := graph.Star(501)
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			s := buildAndOpenCodec(t, g, 64, codec)
			verifyMatchesGraph(t, g, s)
			hub := graph.VertexID(0)
			if got := s.SpanOf(hub); got < 2 {
				t.Fatalf("SpanOf(hub) = %d, want >= 2", got)
			}
			// Continuation pages must not start records.
			first := s.FirstPageOf(hub)
			for p := first + 1; p < first+uint32(s.SpanOf(hub)); p++ {
				if s.StartsRecord(p) {
					t.Fatalf("continuation page %d claims to start a record", p)
				}
			}
		})
	}
}

func TestStoreEmptyAndIsolatedVertices(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	s := buildAndOpen(t, g, 64)
	verifyMatchesGraph(t, g, s)
	if s.DegreeOf(0) != 0 {
		t.Fatalf("DegreeOf(0) = %d, want 0", s.DegreeOf(0))
	}
}

func TestSpanOfMatchesDirectory(t *testing.T) {
	// Spans are a write-time fact read back from the page directory: for
	// every vertex, SpanOf must cover exactly the pages up to the next
	// record start, and decoding exactly that range must yield the record.
	g, err := gen.RMAT(gen.DefaultRMAT(256, 3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	og, _ := graph.DegreeOrder(g)
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			s := buildAndOpenCodec(t, og, 64, codec)
			dev, err := s.Device()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dev.Close() }()
			for v := 0; v < s.NumVertices; v++ {
				first := s.FirstPageOf(graph.VertexID(v))
				span := s.SpanOf(graph.VertexID(v))
				if span < 1 {
					t.Fatalf("SpanOf(%d) = %d", v, span)
				}
				if !s.StartsRecord(first) {
					t.Fatalf("vertex %d: first page %d does not start a record", v, first)
				}
				// A span beyond one page means a run: its continuation
				// pages must not start records.
				for p := first + 1; p < first+uint32(span); p++ {
					if s.StartsRecord(p) {
						t.Fatalf("vertex %d: span %d crosses record start at page %d", v, span, p)
					}
				}
				data, err := dev.ReadPages(first, span)
				if err != nil {
					t.Fatal(err)
				}
				recs, _, err := s.DecodeAt(nil, nil, first, data)
				if err != nil {
					t.Fatalf("vertex %d: decoding its span: %v", v, err)
				}
				found := false
				for _, r := range recs {
					if r.ID == uint32(v) {
						found = true
					}
				}
				if !found {
					t.Fatalf("vertex %d not found in its own span [%d,+%d)", v, first, span)
				}
			}
		})
	}
}

func TestAlignedRange(t *testing.T) {
	g := graph.Star(201) // hub spans several 64-byte pages
	s := buildAndOpen(t, g, 64)
	// Hub record is first (vertex 0). A 1-page range from its start must
	// extend to the whole run.
	first := s.FirstPageOf(0)
	span := s.SpanOf(0)
	if got := s.AlignedRange(first, 1); got != span {
		t.Fatalf("AlignedRange = %d, want %d", got, span)
	}
	// A range already at a boundary stays unchanged.
	after := first + uint32(span)
	if after < s.NumPages {
		if got := s.AlignedRange(after, 1); got < 1 {
			t.Fatalf("AlignedRange at boundary = %d", got)
		}
	}
	// Range reaching the end of the store is capped correctly.
	if got := s.AlignedRange(0, int(s.NumPages)); got != int(s.NumPages) {
		t.Fatalf("full range = %d, want %d", got, s.NumPages)
	}
}

func TestDecodeMisalignedRange(t *testing.T) {
	g := graph.Star(201)
	s := buildAndOpen(t, g, 64)
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	// Page 1 is a continuation of the hub's run.
	if s.StartsRecord(1) {
		t.Skip("layout changed; page 1 not a continuation")
	}
	data, err := dev.ReadPages(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.DecodeAt(nil, nil, 1, data); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("DecodeAt mid-run err = %v, want ErrMisaligned", err)
	}
}

func TestDecodeTruncatedRun(t *testing.T) {
	g := graph.Star(201)
	s := buildAndOpen(t, g, 64)
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	span := s.SpanOf(0)
	if span < 2 {
		t.Skip("hub does not span pages")
	}
	data, err := dev.ReadPages(s.FirstPageOf(0), span-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.DecodeAt(nil, nil, s.FirstPageOf(0), data); !errors.Is(err, ErrTruncatedRun) {
		t.Fatalf("DecodeAt truncated run err = %v, want ErrTruncatedRun", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("this is not a store file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open(junk): want error")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Open(missing): want error")
	}
}

func TestBuildFileValidation(t *testing.T) {
	g := graph.PaperExample()
	if _, err := BuildFile(filepath.Join(t.TempDir(), "x"), g, 8); err == nil {
		t.Fatal("tiny page size: want error")
	}
}

func TestStoreOnGeneratedGraph(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(1<<10, 8000, 21))
	if err != nil {
		t.Fatal(err)
	}
	og, _ := graph.DegreeOrder(g)
	s := buildAndOpen(t, og, 256)
	verifyMatchesGraph(t, og, s)

	// Page ranges aligned via AlignedRange decode cleanly across the store.
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	var pid uint32
	total := 0
	for pid < s.NumPages {
		count := s.AlignedRange(pid, 4)
		data, err := dev.ReadPages(pid, count)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := s.DecodeAt(nil, nil, pid, data)
		if err != nil {
			t.Fatalf("decode range [%d,+%d): %v", pid, count, err)
		}
		total += len(recs)
		pid += uint32(count)
	}
	if total != og.NumVertices() {
		t.Fatalf("ranged decode saw %d vertices, want %d", total, og.NumVertices())
	}
}

func TestFirstPageMonotone(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(512, 4000, 13))
	if err != nil {
		t.Fatal(err)
	}
	og, _ := graph.DegreeOrder(g)
	s := buildAndOpen(t, og, 128)
	for v := 1; v < s.NumVertices; v++ {
		if s.FirstPageOf(graph.VertexID(v)) < s.FirstPageOf(graph.VertexID(v-1)) {
			t.Fatalf("FirstPageOf not monotone at %d", v)
		}
	}
}

func TestAlignedRangeClampsToStore(t *testing.T) {
	g := graph.PaperExample()
	s := buildAndOpen(t, g, 64)
	// Requesting far more pages than exist must clamp to the store size.
	if got := s.AlignedRange(0, int(s.NumPages)+100); got != int(s.NumPages) {
		t.Fatalf("AlignedRange over-end = %d, want %d", got, s.NumPages)
	}
	last := s.NumPages - 1
	if got := s.AlignedRange(last, 16); got < 1 || got > int(s.NumPages-last) {
		t.Fatalf("AlignedRange at tail = %d", got)
	}
}

// TestStoreDataAligned pins the v2 layout's O_DIRECT eligibility: both
// writers must land the data region on an ssd.DirectAlign boundary with
// zero padding after the page directory.
func TestStoreDataAligned(t *testing.T) {
	g := graph.PaperExample()
	for _, build := range []struct {
		name string
		fn   func(path string) (*Store, error)
	}{
		{"BuildFileCodec", func(path string) (*Store, error) {
			return BuildFileCodec(path, g, 128, CodecRaw)
		}},
		{"BuildFileStreaming", func(path string) (*Store, error) {
			return BuildFileStreaming(path, GraphScanner{G: g},
				StreamBuildOptions{PageSize: 128, TempDir: t.TempDir()})
		}},
	} {
		t.Run(build.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.optstore")
			built, err := build.fn(path)
			if err != nil {
				t.Fatal(err)
			}
			if built.dataOffset%ssd.DirectAlign != 0 {
				t.Fatalf("data offset %d not %d-aligned", built.dataOffset, ssd.DirectAlign)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := dirEnd(built.Version(), built.NumVertices, built.NumPages); i < built.dataOffset; i++ {
				if raw[i] != 0 {
					t.Fatalf("padding byte %d is %#x, want zero", i, raw[i])
				}
			}
			opened, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if opened.dataOffset != built.dataOffset {
				t.Fatalf("reopened data offset %d, want %d", opened.dataOffset, built.dataOffset)
			}
		})
	}
}

// TestOpenUnpaddedStore pins backward compatibility: files written before
// the alignment padding (data pages immediately after the page directory,
// dataOffset equal to the directory end) must still open and decode. The
// fixture is synthesized by splicing the padding out of a fresh store and
// patching the header's dataOffset field.
func TestOpenUnpaddedStore(t *testing.T) {
	g := graph.PaperExample()
	dir := t.TempDir()
	padded := filepath.Join(dir, "padded.optstore")
	if _, err := BuildFileCodec(padded, g, 128, CodecRaw); err != nil {
		t.Fatal(err)
	}
	want := readAll(t, buildAndOpen(t, g, 128))

	raw, err := os.ReadFile(padded)
	if err != nil {
		t.Fatal(err)
	}
	dataOffset := int64(binary.LittleEndian.Uint64(raw[40:]))
	s, err := Open(padded)
	if err != nil {
		t.Fatal(err)
	}
	dirEnd := dirEnd(s.Version(), s.NumVertices, s.NumPages)
	if dataOffset == dirEnd {
		t.Skip("store landed on the alignment boundary with no padding")
	}
	unpadded := append([]byte{}, raw[:dirEnd]...)
	unpadded = append(unpadded, raw[dataOffset:]...)
	binary.LittleEndian.PutUint64(unpadded[40:], uint64(dirEnd))
	legacy := filepath.Join(dir, "legacy.optstore")
	if err := os.WriteFile(legacy, unpadded, 0o644); err != nil {
		t.Fatal(err)
	}

	ls, err := Open(legacy)
	if err != nil {
		t.Fatalf("unpadded layout rejected: %v", err)
	}
	got := readAll(t, ls)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("unpadded store decodes differently from the padded one")
	}

	// A data offset past one alignment round is corruption, not padding.
	binary.LittleEndian.PutUint64(unpadded[40:], uint64(dirEnd+ssd.DirectAlign))
	bad := filepath.Join(dir, "bad.optstore")
	if err := os.WriteFile(bad, unpadded, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("oversized data offset accepted")
	}
}
