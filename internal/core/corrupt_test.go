package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// corruptStore copies st's file with two bytes of one page overwritten —
// the id of the page's first record, or that record's first neighbor,
// either way pushed far beyond |V| — and opens the copy. The page is the
// first one (fromBack: the last one) that is a single-page chunk whose first
// record has a neighbor; under deltavarint the neighbor must also be a
// two-byte varint, so the patch changes its value and not its length.
func corruptStore(t *testing.T, st *storage.Store, neighbor, fromBack bool) *storage.Store {
	t.Helper()
	file, err := os.ReadFile(st.Path)
	if err != nil {
		t.Fatal(err)
	}
	const pageHeader, recHeader = 8, 8
	dataOffset := int(binary.LittleEndian.Uint64(file[40:])) // store header: start of the data region
	patched := false
	for i := 0; i < int(st.NumPages) && !patched; i++ {
		pg := i
		if fromBack {
			pg = int(st.NumPages) - 1 - i
		}
		if !st.StartsRecord(uint32(pg)) || st.AlignedRange(uint32(pg), 1) != 1 {
			continue
		}
		rec := file[dataOffset+pg*st.PageSize+pageHeader:]
		if binary.LittleEndian.Uint32(rec[4:]) == 0 {
			continue
		}
		switch first := rec[recHeader:]; {
		case !neighbor:
			rec[2], rec[3] = 0xff, 0xff
		case st.CodecName() == storage.CodecRaw:
			first[2], first[3] = 0xff, 0xff
		case first[0]&0x80 != 0 && first[1]&0x80 == 0:
			first[0], first[1] = 0xff, 0x7f // 16 383, the fixture has 1 024 vertices
		default:
			continue
		}
		patched = true
	}
	if !patched {
		t.Fatal("no page of the fixture can take the patch")
	}
	path := filepath.Join(t.TempDir(), "corrupt.optstore")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// swappedStore builds g's store with the first two ids of n≻(v) swapped:
// every id in range, the degree right, the list unsorted — under
// deltavarint, a delta that wraps around 2³². No builder writes such a
// list; the test writes it through Neighbors, which aliases the graph's
// storage, and swaps the two back before it returns.
func swappedStore(t *testing.T, g *graph.Graph, v uint32, codec string) *storage.Store {
	t.Helper()
	adj := g.Neighbors(v)
	i := intersect.UpperBound(adj, v)
	if len(adj)-i < 2 {
		t.Fatalf("n≻(%d) has %d ids, the test swaps two", v, len(adj)-i)
	}
	adj[i], adj[i+1] = adj[i+1], adj[i]
	defer func() { adj[i], adj[i+1] = adj[i+1], adj[i] }()
	st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "swapped.optstore"), g, 256, codec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCorruptRecordFailsRun overwrites a record id or a neighbor id in a
// valid store, or swaps two neighbours of a record. The ids index memory
// downstream — the internal area by record, the candidate and probe bitsets
// by neighbor — and every bound that cuts a list, every kernel and every
// learned |n≻| assumes a sorted one, so the run must end with
// storage.ErrCorruptPage and whatever it had counted, on the page's first
// decode (an early page is loaded as internal area, a late one read as an
// external chunk), not with an index panic on a device goroutine or a
// wrong count.
func TestCorruptRecordFailsRun(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 8000, 17))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for _, codec := range storage.Codecs() {
		st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "g.optstore"), g, 256, codec)
		if err != nil {
			t.Fatal(err)
		}
		type corruption struct {
			name string
			bad  *storage.Store
		}
		var cases []corruption
		for _, neighbor := range []bool{false, true} {
			for _, fromBack := range []bool{false, true} {
				name := codec + "/record-id"
				if neighbor {
					name = codec + "/neighbor-id"
				}
				if fromBack {
					name += "/late-page"
				} else {
					name += "/early-page"
				}
				cases = append(cases, corruption{name, corruptStore(t, st, neighbor, fromBack)})
			}
		}
		// Vertex 717: a swap that does not crash the unchecked kernels but
		// makes them miss a triangle in every mode on either codec.
		cases = append(cases, corruption{codec + "/swapped-neighbors", swappedStore(t, g, 717, codec)})
		for _, c := range cases {
			for _, o := range []optRunner{serial, parallel} {
				t.Run(c.name+"/"+o.mode.String(), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					res, _, err := runFile(c.bad, o, engine.Options{Threads: 2, MemoryPages: int(c.bad.NumPages) / 8})
					if !errors.Is(err, storage.ErrCorruptPage) {
						var got int64
						if res != nil {
							got = res.Triangles
						}
						t.Fatalf("run over a corrupt page: err = %v (%d triangles, %d in the intact graph), want storage.ErrCorruptPage",
							err, got, graph.CountTrianglesReference(g))
					}
					if res == nil {
						t.Fatal("no partial result alongside the error")
					}
					testutil.WaitGoroutines(t, baseline, "after a run that failed on a corrupt page")
				})
			}
		}
	}
}
