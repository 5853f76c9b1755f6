package diskio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
)

func TestStreamRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ccg")
	mx := metrics.NewCollector()
	cm := CostModel{PageSize: 64, Events: mx}
	w, err := NewStreamWriter(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[uint32][]uint32{
		1: {2, 3, 4},
		5: {},
		9: make([]uint32, 100), // spans several pages
	}
	for i := range recs[9] {
		recs[9][i] = uint32(i)
	}
	order := []uint32{1, 5, 9}
	for _, id := range order {
		if err := w.WriteRecord(id, recs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if w.BytesWritten() != int64(8+12+8+8+400) {
		t.Fatalf("BytesWritten = %d", w.BytesWritten())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantPages := (int64(8+12+8+8+400) + 63) / 64
	if mx.PagesWritten() != wantPages {
		t.Fatalf("PagesWritten = %d, want %d", mx.PagesWritten(), wantPages)
	}

	r, err := NewStreamReader(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	var gotOrder []uint32
	for {
		id, adj, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		gotOrder = append(gotOrder, id)
		want := recs[id]
		if len(want) == 0 && len(adj) == 0 {
			continue
		}
		if !reflect.DeepEqual(adj, want) {
			t.Fatalf("record %d = %v, want %v", id, adj, want)
		}
	}
	if !reflect.DeepEqual(gotOrder, order) {
		t.Fatalf("order = %v, want %v", gotOrder, order)
	}
	if mx.PagesRead() == 0 {
		t.Fatal("PagesRead = 0")
	}
}

func TestStreamReaderMissingFile(t *testing.T) {
	if _, err := NewStreamReader(filepath.Join(t.TempDir(), "absent"), CostModel{PageSize: 64}); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestStreamBadPageSize(t *testing.T) {
	if _, err := NewStreamWriter(filepath.Join(t.TempDir(), "x"), CostModel{}); err == nil {
		t.Fatal("want error for page size 0")
	}
	if _, err := NewStreamReader(filepath.Join(t.TempDir(), "x"), CostModel{}); err == nil {
		t.Fatal("want error for page size 0")
	}
}

func TestStreamLatencyCharging(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lat.ccg")
	mx := metrics.NewCollector()
	lat := ssd.Latency{PerRead: time.Millisecond, PerPage: 10 * time.Microsecond}
	cm := CostModel{PageSize: 64, Latency: lat, Events: mx}
	// 20 records × 128B = 2560B = 40 pages, PerRead paid once per readAhead
	// pages: 40×10µs + 2×1ms = 2.4ms each way.
	const pages = 40
	want := pages*lat.PerPage + pages/readAhead*lat.PerRead
	w, err := NewStreamWriter(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	adj := make([]uint32, 30) // 128 bytes per record -> 2 pages
	for i := 0; i < 20; i++ {
		if err := w.WriteRecord(uint32(i), adj); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < want {
		t.Fatalf("write latency undercharged: %v, want ≥ %v", elapsed, want)
	}
	if mx.PagesWritten() != pages {
		t.Fatalf("PagesWritten = %d, want %d", mx.PagesWritten(), pages)
	}

	r, err := NewStreamReader(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	for {
		if _, _, err := r.ReadRecord(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < want {
		t.Fatalf("read latency undercharged: %v, want ≥ %v", elapsed, want)
	}
	if mx.PagesRead() != pages {
		t.Fatalf("PagesRead = %d, want %d", mx.PagesRead(), pages)
	}
}

func TestStreamTruncatedBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.ccg")
	cm := CostModel{PageSize: 64}
	w, err := NewStreamWriter(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(7, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the body.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewStreamReader(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if _, _, err := r.ReadRecord(); err == nil {
		t.Fatal("truncated body: want error")
	}
	// Cut into the header.
	if err := os.WriteFile(path, data[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := NewStreamReader(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r2.Close() }()
	if _, _, err := r2.ReadRecord(); err == nil {
		t.Fatal("truncated header: want error")
	}
	// A header claiming 2³²-1 neighbours over a 4-byte body: an error,
	// after reading no more than the file holds.
	if err := os.WriteFile(path, []byte{7, 0, 0, 0, 255, 255, 255, 255, 1, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	r3, err := NewStreamReader(path, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r3.Close() }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = r3.ReadRecord()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge degree over a short body: want error")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("huge degree allocated %d bytes before failing", grown)
	}
}

// TestFailClosesUnder pins the close-fault seam: files created under the
// directory fail Close with ssd.ErrInjected, anything else closes cleanly,
// and the restore function turns the seam off.
func TestFailClosesUnder(t *testing.T) {
	faulty, clean := t.TempDir(), t.TempDir()
	restore := FailClosesUnder(faulty)
	defer restore()
	cm := CostModel{PageSize: 64}
	w, err := NewStreamWriter(filepath.Join(faulty, "s.ccg"), cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(1, []uint32{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("StreamWriter.Close under the fault directory = %v, want ssd.ErrInjected", err)
	}
	f, err := CreateTempRaw(faulty, "raw-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("RawFile.Close under the fault directory = %v, want ssd.ErrInjected", err)
	}
	if f, err = CreateRaw(filepath.Join(clean, "raw")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("RawFile.Close outside the fault directory = %v", err)
	}
	restore()
	if f, err = CreateRaw(filepath.Join(faulty, "after")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("RawFile.Close after restore = %v", err)
	}
}
