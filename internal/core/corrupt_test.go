package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
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

// TestCorruptRecordFailsRun overwrites a record id or a neighbor id in a
// valid store. Both index memory downstream — the internal area by record,
// the candidate and probe bitsets by neighbor — so the run must end with
// storage.ErrCorruptPage and whatever it had counted, on the page's first
// decode (an early page is loaded as internal area, a late one read as an
// external chunk), not with an index panic on a device goroutine.
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
		for _, neighbor := range []bool{false, true} {
			for _, fromBack := range []bool{false, true} {
				bad := corruptStore(t, st, neighbor, fromBack)
				for _, mode := range []Mode{Serial, Parallel} {
					name := codec + "/record-id"
					if neighbor {
						name = codec + "/neighbor-id"
					}
					if fromBack {
						name += "/late-page"
					} else {
						name += "/early-page"
					}
					t.Run(name+"/"+mode.String(), func(t *testing.T) {
						baseline := runtime.NumGoroutine()
						res, err := RunFile(bad, Options{Mode: mode, Threads: 2, MemoryPages: int(bad.NumPages) / 8})
						if !errors.Is(err, storage.ErrCorruptPage) {
							t.Fatalf("run over a corrupt page: err = %v, want storage.ErrCorruptPage", err)
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
}
