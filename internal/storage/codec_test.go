package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
)

func TestCodecRegistry(t *testing.T) {
	for i, name := range Codecs() {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if int(c.ID()) != i {
			t.Fatalf("codec %s: id %d at registry slot %d", name, c.ID(), i)
		}
	}
	if c, err := CodecByName(""); err != nil || c.Name() != CodecRaw {
		t.Fatalf("empty name: (%v, %v), want raw", c, err)
	}
	if _, err := CodecByName("zstd"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("unknown name err = %v, want ErrUnknownCodec", err)
	}
	if _, err := codecByID(99); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("unknown id err = %v, want ErrUnknownCodec", err)
	}
}

func TestBuildFileCodecValidation(t *testing.T) {
	g := graph.PaperExample()
	dir := t.TempDir()
	if _, err := BuildFileCodec(filepath.Join(dir, "x"), g, 128, "zstd"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("unknown codec err = %v, want ErrUnknownCodec", err)
	}
	// deltavarint needs one extra byte over the raw minimum page.
	if _, err := BuildFileCodec(filepath.Join(dir, "y"), g, MinPageSize, CodecDeltaVarint); err == nil {
		t.Fatal("deltavarint at raw minimum page size: want error")
	}
	dv, err := CodecByName(CodecDeltaVarint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFileCodec(filepath.Join(dir, "z"), g, MinPageSizeFor(dv), CodecDeltaVarint); err != nil {
		t.Fatalf("deltavarint at its minimum page size: %v", err)
	}
}

// writeLegacy writes s, a store built by this package, to path in the
// layout of format version 1 or 2: the header of that version, 8-byte vertex
// entries without the successor count, the page directory, padding up to the
// next ssd.DirectAlign boundary, and s's data pages unchanged. A v1 file
// keeps the codec bytes zero and holds raw pages only.
func writeLegacy(t testing.TB, s *Store, path string, version int) {
	t.Helper()
	data, err := os.ReadFile(s.Path)
	if err != nil {
		t.Fatal(err)
	}
	end := dirEnd(version, s.NumVertices, s.NumPages)
	dataOffset := (end + ssd.DirectAlign - 1) &^ int64(ssd.DirectAlign-1)
	out := make([]byte, dataOffset, dataOffset+int64(s.NumPages)*int64(s.PageSize))
	copy(out, data[:headerSize])
	copy(out[0:8], storeMagicStem+string(rune('0'+version)))
	binary.LittleEndian.PutUint32(out[8:], uint32(version))
	binary.LittleEndian.PutUint64(out[40:], uint64(dataOffset))
	if version == storeVersionV1 {
		binary.LittleEndian.PutUint16(out[48:], 0)
	}
	for v := 0; v < s.NumVertices; v++ {
		binary.LittleEndian.PutUint32(out[headerSize+8*v:], s.firstPage[v])
		binary.LittleEndian.PutUint32(out[headerSize+8*v+4:], s.degree[v])
	}
	for p, v := range s.pageFirst {
		binary.LittleEndian.PutUint32(out[headerSize+8*s.NumVertices+4*p:], v)
	}
	out = append(out, data[s.dataOffset:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenV1Store and TestOpenV2Store open legacy files of graphs a v3
// build also wrote — the paper's example, and an R-MAT graph whose hubs
// span runs of pages — and hold them to the v3 store: the same successor
// directory, derived from the pages, beside the same directories and lists.
// A legacy page that breaks the directories fails Open, since the
// derivation decodes every page.
func TestOpenV1Store(t *testing.T) { checkLegacyStores(t, storeVersionV1, []string{CodecRaw}) }

func TestOpenV2Store(t *testing.T) { checkLegacyStores(t, storeVersionV2, codecNames) }

func checkLegacyStores(t *testing.T, version int, codecs []string) {
	raw, err := gen.RMAT(gen.DefaultRMAT(256, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	rmat, _ := graph.DegreeOrder(raw)
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		pageSize int
	}{{"paper", graph.PaperExample(), 64}, {"rmat", rmat, 128}} {
		for _, codec := range codecs {
			t.Run(fmt.Sprintf("%s/%s", tc.name, codec), func(t *testing.T) {
				dir := t.TempDir()
				v3, err := BuildFileCodec(filepath.Join(dir, "v3.optstore"), tc.g, tc.pageSize, codec)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, "legacy.optstore")
				writeLegacy(t, v3, path, version)
				s, err := Open(path)
				if err != nil {
					t.Fatalf("opening a v%d store: %v", version, err)
				}
				if s.Version() != version || s.CodecName() != codec {
					t.Fatalf("v%d store reports v%d/%s, want v%d/%s", version, s.Version(), s.CodecName(), version, codec)
				}
				if !slices.Equal(s.succ, v3.succ) || !slices.Equal(s.degree, v3.degree) ||
					!slices.Equal(s.firstPage, v3.firstPage) || !slices.Equal(s.pageFirst, v3.pageFirst) {
					t.Fatal("the legacy store's directories differ from the v3 build's")
				}
				verifyMatchesGraph(t, tc.g, s)

				// Push page 0's first record id past |V|.
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[s.dataOffset+pageHeaderSize:], uint32(s.NumVertices))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := Open(path); !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("opening a v%d store with a corrupt page: err = %v, want ErrCorruptPage", version, err)
				}
			})
		}
	}
}

func TestOpenRejectsUnknownVersionAndCodec(t *testing.T) {
	g := graph.PaperExample()
	dir := t.TempDir()
	build := func(name string) ([]byte, string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if _, err := BuildFileCodec(p, g, 64, CodecRaw); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data, p
	}

	data, p := build("badmagic")
	copy(data[0:8], "OPTSTOR9")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("future magic err = %v, want ErrUnknownVersion", err)
	}

	data, p = build("badversion")
	binary.LittleEndian.PutUint32(data[8:], 7)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("v3 magic with version 7 err = %v, want ErrUnknownVersion", err)
	}

	data, p = build("badcodec")
	binary.LittleEndian.PutUint16(data[48:], 99)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("codec id 99 err = %v, want ErrUnknownCodec", err)
	}
}

// TestDeltaVarintShrinksPowerLawStore pins the acceptance criterion: on the
// power-law kernels workload the deltavarint codec must shrink P(G) by at
// least 25% relative to raw.
func TestDeltaVarintShrinksPowerLawStore(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(1<<10, 12_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	og, _ := graph.DegreeOrder(g)
	dir := t.TempDir()
	raw, err := BuildFileCodec(filepath.Join(dir, "raw"), og, 1024, CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := BuildFileCodec(filepath.Join(dir, "dv"), og, 1024, CodecDeltaVarint)
	if err != nil {
		t.Fatal(err)
	}
	if dv.NumPages == 0 || raw.NumPages == 0 {
		t.Fatal("empty store")
	}
	reduction := 1 - float64(dv.NumPages)/float64(raw.NumPages)
	t.Logf("P(G): raw %d pages, deltavarint %d pages, reduction %.1f%%",
		raw.NumPages, dv.NumPages, 100*reduction)
	if reduction < 0.25 {
		t.Fatalf("deltavarint reduced P(G) by %.1f%%, want >= 25%%", 100*reduction)
	}
	// The raw-packing simulation must agree exactly with the raw writer.
	if got := raw.RawDataPages(); got != int64(raw.NumPages) {
		t.Fatalf("RawDataPages() = %d on a raw store with %d pages", got, raw.NumPages)
	}
	if got := dv.RawDataPages(); got != int64(raw.NumPages) {
		t.Fatalf("RawDataPages() on dv store = %d, want %d", got, raw.NumPages)
	}
}

// TestDecodeSteadyStateAllocs pins the decode hot path at zero allocations
// per operation once the record and arena slices are warm, for both codecs.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	g, err := gen.RMAT(gen.DefaultRMAT(512, 6000, 11))
	if err != nil {
		t.Fatal(err)
	}
	og, _ := graph.DegreeOrder(g)
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			s := buildAndOpenCodec(t, og, 128, codec)
			dev, err := s.Device()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dev.Close() }()
			data, err := dev.ReadPages(0, int(s.NumPages))
			if err != nil {
				t.Fatal(err)
			}
			var recs []VertexRec
			var arena []uint32
			// Warm pass grows both slices to their steady-state capacity.
			recs, arena, err = s.DecodeAppend(recs[:0], arena[:0], data)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				var derr error
				recs, arena, derr = s.DecodeAppend(recs[:0], arena[:0], data)
				if derr != nil {
					t.Fatal(derr)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state decode allocates %.1f per run, want 0", allocs)
			}
			if len(recs) != s.NumVertices {
				t.Fatalf("decoded %d records, want %d", len(recs), s.NumVertices)
			}
		})
	}
}
