package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Output receives discovered triangles in the paper's nested representation:
// all triangles sharing the prefix (u, v) arrive as one ⟨u, v, {w₁…w_k}⟩
// record (§3.2, "Generating results"). Implementations must be safe for
// concurrent use.
type Output interface {
	Emit(u, v uint32, ws []uint32)
}

// Triangle is one fully expanded triangle with id(U) < id(V) < id(W).
type Triangle struct {
	U, V, W uint32
}

// CollectingOutput accumulates expanded triangles for tests and the
// examples. Not intended for billion-triangle runs.
type CollectingOutput struct {
	mu  sync.Mutex
	tri []Triangle
}

// Emit implements Output.
func (o *CollectingOutput) Emit(u, v uint32, ws []uint32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, w := range ws {
		o.tri = append(o.tri, Triangle{U: u, V: v, W: w})
	}
}

// Triangles returns the collected triangles sorted lexicographically.
func (o *CollectingOutput) Triangles() []Triangle {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]Triangle(nil), o.tri...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].W < out[j].W
	})
	return out
}

// FuncOutput adapts a function to Output. The function must be safe for
// concurrent use.
type FuncOutput func(u, v uint32, ws []uint32)

// Emit implements Output.
func (f FuncOutput) Emit(u, v uint32, ws []uint32) { f(u, v, ws) }

// NestedWriter streams nested-representation records to an io.Writer in a
// compact binary form: u, v, k, w₁…w_k as little-endian uint32. Each
// emitting goroutine accumulates into a private buffer that is flushed in
// bulk, reproducing the paper's buffered bulk-write scheme; the Table 3
// experiment writes through this sink to a second device.
type NestedWriter struct {
	mu      sync.Mutex
	w       *bufio.Writer
	err     error
	n       atomic.Int64
	bufPool sync.Pool
	bufs    struct {
		sync.Mutex
		all []*[]byte // every buffer ever created, for Close-time flushing
	}
	bytes atomic.Int64
}

// flushThreshold is the per-goroutine buffer size that triggers a bulk
// write to the underlying writer.
const flushThreshold = 1 << 16

// NewNestedWriter returns a NestedWriter over w.
func NewNestedWriter(w io.Writer) *NestedWriter {
	nw := &NestedWriter{w: bufio.NewWriterSize(w, 1<<20)}
	nw.bufPool.New = func() any {
		b := make([]byte, 0, flushThreshold+4096)
		bp := &b
		nw.bufs.Lock()
		nw.bufs.all = append(nw.bufs.all, bp)
		nw.bufs.Unlock()
		return bp
	}
	return nw
}

// Emit implements Output.
func (nw *NestedWriter) Emit(u, v uint32, ws []uint32) {
	bp := nw.bufPool.Get().(*[]byte)
	b := *bp
	var tmp [12]byte
	binary.LittleEndian.PutUint32(tmp[0:], u)
	binary.LittleEndian.PutUint32(tmp[4:], v)
	binary.LittleEndian.PutUint32(tmp[8:], uint32(len(ws)))
	b = append(b, tmp[:]...)
	for _, w := range ws {
		var wb [4]byte
		binary.LittleEndian.PutUint32(wb[:], w)
		b = append(b, wb[:]...)
	}
	nw.n.Add(int64(len(ws)))
	if len(b) >= flushThreshold {
		nw.flush(b)
		b = b[:0]
	}
	*bp = b
	nw.bufPool.Put(bp)
}

func (nw *NestedWriter) flush(b []byte) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.err != nil {
		return
	}
	n, err := nw.w.Write(b)
	nw.bytes.Add(int64(n))
	if err != nil {
		nw.err = err
	}
}

// Close flushes all buffers and returns the first write error, if any.
// Emitters must have stopped before Close is called.
func (nw *NestedWriter) Close() error {
	nw.bufs.Lock()
	all := nw.bufs.all
	nw.bufs.Unlock()
	for _, bp := range all {
		if len(*bp) > 0 {
			nw.flush(*bp)
			*bp = (*bp)[:0]
		}
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if err := nw.w.Flush(); err != nil && nw.err == nil {
		nw.err = err
	}
	return nw.err
}

// Triangles returns the number of triangles written.
func (nw *NestedWriter) Triangles() int64 { return nw.n.Load() }

// BytesWritten returns the number of payload bytes handed to the underlying
// writer so far (excluding data still in buffers).
func (nw *NestedWriter) BytesWritten() int64 { return nw.bytes.Load() }

// ReadNested decodes every record of a nested-representation stream,
// calling fn per record. It is the inverse of NestedWriter for tools and
// tests.
func ReadNested(r io.Reader, fn func(u, v uint32, ws []uint32) error) error {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		u := binary.LittleEndian.Uint32(hdr[0:])
		v := binary.LittleEndian.Uint32(hdr[4:])
		k := binary.LittleEndian.Uint32(hdr[8:])
		// Grow incrementally so a corrupt count cannot demand a huge
		// allocation before the stream runs dry.
		capHint := k
		if capHint > 4096 {
			capHint = 4096
		}
		ws := make([]uint32, 0, capHint)
		for i := uint32(0); i < k; i++ {
			var wb [4]byte
			if _, err := io.ReadFull(br, wb[:]); err != nil {
				return fmt.Errorf("core: nested record (%d, %d) truncated at %d of %d: %w", u, v, i, k, err)
			}
			ws = append(ws, binary.LittleEndian.Uint32(wb[:]))
		}
		if err := fn(u, v, ws); err != nil {
			return err
		}
	}
}
