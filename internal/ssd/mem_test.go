package ssd

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// memDevice is an in-memory PageDevice over fixed contents: the device this
// package's tests drive the async and sync layers with.
type memDevice struct {
	pageSize int
	data     []byte
	closed   atomic.Bool
}

// newMemDevice returns a numPages-page device whose page p is byte(p)
// throughout.
func newMemDevice(pageSize, numPages int) *memDevice {
	return &memDevice{pageSize: pageSize, data: pagePattern(pageSize, numPages)}
}

// pagePattern returns numPages pages of pageSize bytes, page p filled with
// byte(p).
func pagePattern(pageSize, numPages int) []byte {
	buf := make([]byte, numPages*pageSize)
	for i := range buf {
		buf[i] = byte(i / pageSize)
	}
	return buf
}

// patternFile writes offset header bytes and then pagePattern's pages to a
// fresh file, and returns its path.
func patternFile(t *testing.T, offset int64, pageSize, numPages int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.bin")
	content := append(make([]byte, offset), pagePattern(pageSize, numPages)...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func (d *memDevice) PageSize() int    { return d.pageSize }
func (d *memDevice) NumPages() uint32 { return uint32(len(d.data) / d.pageSize) }
func (d *memDevice) Close() error     { d.closed.Store(true); return nil }

func (d *memDevice) ReadPages(first uint32, count int) ([]byte, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: count %d", ErrOutOfRange, count)
	}
	buf := make([]byte, count*d.pageSize)
	if err := d.ReadPagesInto(buf, first, count); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d *memDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	if d.closed.Load() {
		return ErrClosed
	}
	start := int64(first) * int64(d.pageSize)
	end := start + int64(count)*int64(d.pageSize)
	if count <= 0 || end > int64(len(d.data)) {
		return fmt.Errorf("%w: pages [%d, %d) of %d", ErrOutOfRange, first, int64(first)+int64(count), d.NumPages())
	}
	if want := int(end - start); len(buf) < want {
		return fmt.Errorf("ssd: read buffer of %d bytes, want %d", len(buf), want)
	}
	copy(buf, d.data[start:end])
	return nil
}
