package testutil

import (
	"encoding/binary"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// ShiftedSuccStore copies st's file, a format v3 store, with the successor
// directory entries of two vertices moved by +1 and −1, opens the copy and
// returns it with the two vertices. Every entry stays within its degree and
// the entries still sum to |E|, so Open accepts the file; but the two
// records' lists no longer split where the directory says, which every
// decode must report as storage.ErrCorruptPage. up is the first vertex with
// a neighbor on each side of it, down the first other one with a
// successor.
func ShiftedSuccStore(t testing.TB, st *storage.Store) (bad *storage.Store, up, down uint32) {
	t.Helper()
	if st.Version() != 3 {
		t.Fatalf("store format v%d, the shift patches v3's successor directory", st.Version())
	}
	up, down = noVertex, noVertex
	for v := uint32(0); int(v) < st.NumVertices && (up == noVertex || down == noVertex); v++ {
		succ, deg := st.SuccOf(v), st.DegreeOf(v)
		switch {
		case up == noVertex && succ > 0 && succ < deg:
			up = v
		case down == noVertex && succ > 0:
			down = v
		}
	}
	if up == noVertex || down == noVertex {
		t.Fatal("the store has no two vertices whose successor counts can move")
	}
	file, err := readFile(st.Path)
	if err != nil {
		t.Fatal(err)
	}
	// The v3 layout (storage/store.go): a 64-byte header, then one 12-byte
	// entry (firstPage, degree, succ) per vertex.
	const headerSize, entrySize, succAt = 64, 12, 8
	for _, e := range []struct {
		v     uint32
		shift int
	}{{up, +1}, {down, -1}} {
		at := headerSize + entrySize*int(e.v) + succAt
		binary.LittleEndian.PutUint32(file[at:], uint32(st.SuccOf(e.v)+e.shift))
	}
	path := filepath.Join(t.TempDir(), "shifted-succ.optstore")
	if err := writeFile(path, file); err != nil {
		t.Fatal(err)
	}
	bad, err = storage.Open(path)
	if err != nil {
		t.Fatalf("opening the shifted store: %v", err)
	}
	return bad, up, down
}

const noVertex = ^uint32(0)

// WrongPagesDevice answers one read with other pages than the ones asked
// for: the first read of count pages from a page p > 0 such that the count
// pages from page 0 end at a record boundary gets those pages instead. That
// span decodes cleanly and agrees with the store's directories — only the
// reader knows it asked for page p — so every reader must report it as
// storage.ErrCorruptPage rather than take its records for p's.
type WrongPagesDevice struct {
	ssd.PageDevice
	st   *storage.Store
	done atomic.Bool
}

// NewWrongPagesDevice wraps dev, a device over st's pages.
func NewWrongPagesDevice(dev ssd.PageDevice, st *storage.Store) *WrongPagesDevice {
	return &WrongPagesDevice{PageDevice: dev, st: st}
}

// Redirected reports whether the device has answered its one wrong read.
func (d *WrongPagesDevice) Redirected() bool { return d.done.Load() }

func (d *WrongPagesDevice) at(first uint32, count int) uint32 {
	if first == 0 || d.st.AlignedRange(0, count) != count || !d.done.CompareAndSwap(false, true) {
		return first
	}
	return 0
}

// ReadPages implements ssd.PageDevice.
func (d *WrongPagesDevice) ReadPages(first uint32, count int) ([]byte, error) {
	return d.PageDevice.ReadPages(d.at(first, count), count)
}

// ReadPagesInto implements ssd.PageDevice.
func (d *WrongPagesDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	return d.PageDevice.ReadPagesInto(buf, d.at(first, count), count)
}

func readFile(path string) ([]byte, error) {
	f, err := diskio.OpenRaw(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return io.ReadAll(f)
}

func writeFile(path string, data []byte) error {
	f, err := diskio.CreateRaw(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
