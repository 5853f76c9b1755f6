// Package extsort provides a bounded-memory external merge sort over
// uint64 keys, the substrate behind the streaming store builder: edge
// lists larger than RAM are spilled as sorted runs to temporary files and
// merged with a k-way heap. The paper's premise is billion-edge graphs on
// a single PC; preprocessing them into the slotted-page store must not
// assume the edge list fits in memory.
package extsort

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/radix"
)

// Sorter accumulates uint64 keys and streams them back in ascending order
// using at most ~8·RunSize bytes of memory plus merge buffers. The budget
// is shared: a run holds RunSize/2 keys and the radix sort's scratch buffer
// the other half.
type Sorter struct {
	dir     string
	runLen  int // keys per run
	buf     []uint64
	scratch []uint64 // radix.Sort's second buffer, grown to len(buf) on use
	runs    []string
	closed  bool

	ctx   context.Context
	ticks int // keys since the last context check
}

// ctxCheckInterval is how many keys pass between context checks: frequent
// enough to cancel a billion-edge sort promptly, rare enough to keep the
// check off the per-key fast path's profile.
const ctxCheckInterval = 1 << 16

// SetContext attaches a cancellation context: Push and Sort fail with the
// context's error soon (within ctxCheckInterval keys) after it is done.
func (s *Sorter) SetContext(ctx context.Context) { s.ctx = ctx }

// tick performs the periodic context check.
func (s *Sorter) tick() error {
	if s.ctx == nil {
		return nil
	}
	s.ticks++
	if s.ticks < ctxCheckInterval {
		return nil
	}
	s.ticks = 0
	return s.ctx.Err()
}

// DefaultRunSize is the default in-memory run length (keys).
const DefaultRunSize = 1 << 22 // 32 MiB of keys

// NewSorter creates a Sorter spilling runs into dir. runSize is the
// in-memory budget in keys, runs and sort scratch together; ≤ 0 selects
// DefaultRunSize.
func NewSorter(dir string, runSize int) *Sorter {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	runLen := max(runSize/2, 1)
	return &Sorter{dir: dir, runLen: runLen, buf: make([]uint64, 0, min(runLen, 1<<20))}
}

// Push adds one key.
func (s *Sorter) Push(key uint64) error {
	if s.closed {
		return fmt.Errorf("extsort: push after Sort or Close")
	}
	if err := s.tick(); err != nil {
		return err
	}
	s.buf = append(s.buf, key)
	if len(s.buf) >= s.runLen {
		return s.spill()
	}
	return nil
}

// spill sorts the buffer and writes it as a run file. A run that fails to
// write is removed at once: it is not in s.runs, so Close would miss it.
func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortBuf()
	f, err := diskio.CreateTempRaw(s.dir, "extsort-run-*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var scratch [8]byte
	for _, k := range s.buf {
		binary.LittleEndian.PutUint64(scratch[:], k)
		_, _ = bw.Write(scratch[:]) // a write error sticks: Flush returns it
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("extsort: writing run: %w", err)
	}
	s.runs = append(s.runs, f.Name())
	s.buf = s.buf[:0]
	return nil
}

// Sort finishes accumulation and calls fn for every key in ascending
// order (duplicates included). The Sorter cannot be reused afterwards;
// run files are removed.
func (s *Sorter) Sort(fn func(key uint64) error) error {
	if s.closed {
		return fmt.Errorf("extsort: Sort after Sort or Close")
	}
	defer s.Close()

	// Common case: everything fit in memory.
	if len(s.runs) == 0 {
		s.sortBuf()
		for _, k := range s.buf {
			if err := s.tick(); err != nil {
				return err
			}
			if err := fn(k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.spill(); err != nil {
		return err
	}

	// K-way merge over the run files.
	h := &mergeHeap{}
	readers := make([]*runReader, 0, len(s.runs))
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	for i, path := range s.runs {
		r, err := newRunReader(path)
		if err != nil {
			return err
		}
		readers = append(readers, r)
		k, ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h, mergeItem{key: k, src: i})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(mergeItem)
		if err := s.tick(); err != nil {
			return err
		}
		if err := fn(it.key); err != nil {
			return err
		}
		k, ok, err := readers[it.src].next()
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h, mergeItem{key: k, src: it.src})
		}
	}
	return nil
}

// Close removes every run file and drops the buffers; Push and Sort fail
// afterwards. It is safe after Sort and more than once, so a caller defers
// it right after NewSorter and an abandoned sort (a failed Push, a
// cancelled scan) leaves no run behind.
func (s *Sorter) Close() {
	s.closed = true
	for _, path := range s.runs {
		os.Remove(path)
	}
	s.runs = nil
	s.buf = nil
	s.scratch = nil
}

// sortBuf sorts the buffered run in place.
func (s *Sorter) sortBuf() {
	if cap(s.scratch) < len(s.buf) {
		s.scratch = make([]uint64, len(s.buf))
	}
	radix.Sort(s.buf, s.scratch[:len(s.buf)])
}

// Runs reports the number of spilled run files (for tests).
func (s *Sorter) Runs() int { return len(s.runs) }

type runReader struct {
	f  *diskio.RawFile
	br *bufio.Reader
}

func newRunReader(path string) (*runReader, error) {
	f, err := diskio.OpenRaw(filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	return &runReader{f: f, br: bufio.NewReaderSize(f, 1<<20)}, nil
}

func (r *runReader) next() (uint64, bool, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		if err == io.EOF {
			return 0, false, nil
		}
		return 0, false, err
	}
	return binary.LittleEndian.Uint64(b[:]), true, nil
}

// close discards the read-only handle; run files are removed afterwards,
// so the error carries no information.
func (r *runReader) close() { _ = r.f.Close() }

type mergeItem struct {
	key uint64
	src int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
