// Package diskio provides the sequential working-file format shared by the
// iterative "slow group" baselines (CC-Seq, CC-DS, GraphChi-Tri): a flat
// sequence of (id, deg, neighbors…) little-endian uint32 records. Reads and
// writes are reported as page events and pass through the simulated
// device-latency model, so remainder-file I/O costs are comparable with the
// slotted-page stores used by OPT and MGT.
package diskio

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/ssd"
)

// readAhead is the number of pages per priced device request: streams
// read and write sequentially, so the fixed PerRead latency is paid once
// per readAhead pages rather than per page.
const readAhead = 16

// CostModel bundles the per-page accounting applied to stream I/O.
type CostModel struct {
	PageSize int
	Latency  ssd.Latency
	// Context, if non-nil, cancels the stream: ReadRecord and WriteRecord
	// fail with the context's error once it is done, so the iterative
	// baselines stop within one record of cancellation.
	Context context.Context
	// Events, if non-nil, receives PagesRead/PagesWritten events: a
	// runner's one sink, its collector included.
	Events events.Sink
}

// err returns the context's error, if a context is set and done.
func (cm CostModel) err() error {
	if cm.Context != nil {
		return cm.Context.Err()
	}
	return nil
}

// emit forwards one I/O progress event to the configured sink, if any.
func (cm CostModel) emit(kind events.Kind, n int64) {
	if cm.Events != nil {
		cm.Events.Event(events.Event{Kind: kind, Iteration: -1, N: n})
	}
}

// chargePages charges the latency of n sequential pages to th, amortising
// PerRead over the readAhead window. reqPages tracks pages since the last
// priced request and is returned updated.
func (cm CostModel) chargePages(th *ssd.Throttle, n int64, reqPages int) int {
	if cm.Latency.PerRead == 0 && cm.Latency.PerPage == 0 {
		return reqPages
	}
	d := time.Duration(n) * cm.Latency.PerPage
	for i := int64(0); i < n; i++ {
		reqPages++
		if reqPages >= readAhead {
			d += cm.Latency.PerRead
			reqPages = 0
		}
	}
	th.Charge(d)
	return reqPages
}

// StreamWriter writes working-file records with page-granular cost
// accounting.
type StreamWriter struct {
	f        *RawFile
	bw       *bufio.Writer
	bytes    int64
	reqPages int
	th       ssd.Throttle
	cm       CostModel
}

// NewStreamWriter creates (truncating) the working file at path.
func NewStreamWriter(path string, cm CostModel) (*StreamWriter, error) {
	if cm.PageSize <= 0 {
		return nil, fmt.Errorf("diskio: page size %d", cm.PageSize)
	}
	f, err := CreateRaw(path)
	if err != nil {
		return nil, err
	}
	return &StreamWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20), cm: cm}, nil
}

// WriteRecord appends one (id, adj) record.
func (w *StreamWriter) WriteRecord(id uint32, adj []uint32) error {
	if err := w.cm.err(); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], id)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(adj)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	var nb [4]byte
	for _, x := range adj {
		binary.LittleEndian.PutUint32(nb[:], x)
		if _, err := w.bw.Write(nb[:]); err != nil {
			return err
		}
	}
	before := w.bytes / int64(w.cm.PageSize)
	w.bytes += int64(8 + 4*len(adj))
	w.charge(w.bytes/int64(w.cm.PageSize) - before)
	return nil
}

func (w *StreamWriter) charge(pages int64) {
	if pages <= 0 {
		return
	}
	w.cm.emit(events.PagesWritten, pages)
	w.reqPages = w.cm.chargePages(&w.th, pages, w.reqPages)
}

// BytesWritten returns the payload size so far.
func (w *StreamWriter) BytesWritten() int64 { return w.bytes }

// Close charges the final partial page, settles the latency debt, and
// closes the file.
func (w *StreamWriter) Close() error {
	if w.bytes%int64(w.cm.PageSize) != 0 {
		w.charge(1)
	}
	w.th.Flush()
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close() // the flush error is the one to report
		return err
	}
	return w.f.Close()
}

// StreamReader reads working-file records with page-granular cost
// accounting.
type StreamReader struct {
	f        *os.File
	br       *bufio.Reader
	body     []byte // ReadRecord's scratch, at most bodyChunk bytes
	bytes    int64
	reqPages int
	th       ssd.Throttle
	cm       CostModel
}

// NewStreamReader opens the working file at path.
func NewStreamReader(path string, cm CostModel) (*StreamReader, error) {
	if cm.PageSize <= 0 {
		return nil, fmt.Errorf("diskio: page size %d", cm.PageSize)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &StreamReader{f: f, br: bufio.NewReaderSize(f, 1<<20), cm: cm}, nil
}

// bodyChunk is how many record-body bytes ReadRecord reads at a time.
const bodyChunk = 1 << 16

// ReadRecord returns the next (id, adj) record, or io.EOF at end of file.
func (r *StreamReader) ReadRecord() (uint32, []uint32, error) {
	if err := r.cm.err(); err != nil {
		return 0, nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("diskio: truncated record header")
		}
		return 0, nil, err
	}
	id := binary.LittleEndian.Uint32(hdr[0:])
	deg := int64(binary.LittleEndian.Uint32(hdr[4:]))
	// The degree comes off the disk: grow adj as the body arrives, so a
	// corrupt one cannot demand a huge allocation before the file runs dry.
	adj := make([]uint32, 0, min(deg, bodyChunk/4))
	for left := 4 * deg; left > 0; {
		n := min(left, bodyChunk)
		if int64(len(r.body)) < n {
			r.body = make([]byte, n)
		}
		if _, err := io.ReadFull(r.br, r.body[:n]); err != nil {
			return 0, nil, fmt.Errorf("diskio: truncated record body: %w", err)
		}
		for i := int64(0); i < n; i += 4 {
			adj = append(adj, binary.LittleEndian.Uint32(r.body[i:]))
		}
		left -= n
	}
	before := r.bytes / int64(r.cm.PageSize)
	r.bytes += int64(8 + 4*deg)
	if pages := r.bytes/int64(r.cm.PageSize) - before; pages > 0 {
		r.cm.emit(events.PagesRead, pages)
		r.reqPages = r.cm.chargePages(&r.th, pages, r.reqPages)
	}
	return id, adj, nil
}

// Close settles the latency debt and closes the file.
func (r *StreamReader) Close() error {
	r.th.Flush()
	return r.f.Close()
}
