package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
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
// FirstPageOf / FirstRecordOf answers index out of range later.
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
	vertexDir := func(v int) int { return headerSize + 8*v }
	pageDir := func(p int) int { return headerSize + 8*s.NumVertices + 4*p }
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
