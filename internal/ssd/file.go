package ssd

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
)

// FileDevice is a read-only PageDevice backed by a region of a file,
// starting at a byte offset (so a store file can carry a header before its
// page area). Reads use positional I/O and are safe for concurrent use.
type FileDevice struct {
	f        *os.File
	offset   int64
	pageSize int
	numPages uint32
	closed   atomic.Bool
}

// OpenFileDevice opens path read-only as a device whose pages start at
// offset and run to the end of the file.
func OpenFileDevice(path string, offset int64, pageSize int) (*FileDevice, error) {
	if pageSize <= 0 {
		panic("ssd: page size must be positive")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	n := (st.Size() - offset) / int64(pageSize)
	if n < 0 {
		n = 0
	}
	// Page addresses are uint32; a count that does not fit would silently
	// wrap under a bare conversion, making the device lie about its size.
	if n > math.MaxUint32 {
		f.Close()
		return nil, fmt.Errorf("%w: %s holds %d pages of %d bytes", ErrTooManyPages, path, n, pageSize)
	}
	return &FileDevice{f: f, offset: offset, pageSize: pageSize, numPages: uint32(n)}, nil
}

// PageSize implements PageDevice.
func (d *FileDevice) PageSize() int { return d.pageSize }

// NumPages implements PageDevice.
func (d *FileDevice) NumPages() uint32 { return d.numPages }

// ReadPages implements PageDevice.
func (d *FileDevice) ReadPages(first uint32, count int) ([]byte, error) {
	if err := d.checkRange(first, count); err != nil {
		return nil, err
	}
	buf := make([]byte, count*d.pageSize)
	if err := d.ReadPagesInto(buf, first, count); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadPagesInto implements PageDevice.
func (d *FileDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	if err := d.checkRange(first, count); err != nil {
		return err
	}
	want := count * d.pageSize
	if len(buf) < want {
		return fmt.Errorf("ssd: read buffer of %d bytes, want %d", len(buf), want)
	}
	if _, err := d.f.ReadAt(buf[:want], d.offset+int64(first)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("ssd: read pages [%d,+%d): %w", first, count, err)
	}
	return nil
}

// checkRange fails a read of a closed device, or of pages it does not hold.
func (d *FileDevice) checkRange(first uint32, count int) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if count <= 0 || int64(first)+int64(count) > int64(d.numPages) {
		return fmt.Errorf("%w: pages [%d, %d) of %d", ErrOutOfRange, first, int64(first)+int64(count), d.numPages)
	}
	return nil
}

// BackendInfo implements InfoProvider for the portable backend.
func (d *FileDevice) BackendInfo() BackendInfo {
	return BackendInfo{Backend: BackendPortable}
}

// Close implements PageDevice. Closing twice is harmless.
func (d *FileDevice) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	return d.f.Close()
}
