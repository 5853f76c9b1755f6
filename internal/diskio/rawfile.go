package diskio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/optlab/opt/internal/ssd"
)

// RawFile is a plain OS file handle for scratch artifacts that live
// outside the paged store: external-sort run files, benchmark listing
// output, and similar byte streams with no page structure to account for.
// It exists so the rest of the tree never touches os.Open/os.Create
// directly — the ioconfine rule funnels every file handle through this
// package or internal/ssd, keeping raw I/O auditable in one place. Callers
// that need counted, latency-modelled access use StreamReader/StreamWriter
// or an ssd device instead.
type RawFile struct {
	f *os.File
}

// closeFaultDir is the directory set by FailClosesUnder, or nil.
var closeFaultDir atomic.Pointer[string]

// FailClosesUnder makes Close fail with ssd.ErrInjected, after closing the
// file, for every RawFile and StreamWriter under dir until the returned
// function runs. It is the close-fault seam of the failure tests:
// only tests call it, so a dropped Close or Flush error on a written file
// fails a test instead of passing with a short file.
func FailClosesUnder(dir string) (restore func()) {
	clean := filepath.Clean(dir) + string(filepath.Separator)
	closeFaultDir.Store(&clean)
	return func() { closeFaultDir.Store(nil) }
}

// CreateRaw creates or truncates the named scratch file.
func CreateRaw(path string) (*RawFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &RawFile{f: f}, nil
}

// CreateTempRaw creates a new scratch file in dir with a name built from
// pattern, as os.CreateTemp does.
func CreateTempRaw(dir, pattern string) (*RawFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &RawFile{f: f}, nil
}

// OpenRaw opens the named scratch file for reading.
func OpenRaw(path string) (*RawFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &RawFile{f: f}, nil
}

// Read implements io.Reader.
func (r *RawFile) Read(p []byte) (int, error) { return r.f.Read(p) }

// Write implements io.Writer.
func (r *RawFile) Write(p []byte) (int, error) { return r.f.Write(p) }

// Close releases the handle.
func (r *RawFile) Close() error {
	err := r.f.Close()
	if dir := closeFaultDir.Load(); err == nil && dir != nil && strings.HasPrefix(r.f.Name(), *dir) {
		err = fmt.Errorf("diskio: closing %s: %w", r.f.Name(), ssd.ErrInjected)
	}
	return err
}

// Name returns the path the file was opened with.
func (r *RawFile) Name() string { return r.f.Name() }
