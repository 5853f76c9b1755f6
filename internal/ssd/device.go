// Package ssd provides the FlashSSD substrate: page-granular, read-only
// storage devices with the AsyncRead(pid, callback, args) semantics the
// paper's framework is built on (§3.2).
//
// The paper runs on a real Samsung 830 FlashSSD through Windows overlapped
// I/O. What OPT exploits from that stack is precisely:
//
//  1. non-blocking reads — the requesting thread keeps computing,
//  2. device-internal parallelism — several outstanding reads progress
//     concurrently (NCQ), and
//  3. completion callbacks — a callback thread runs CPU work per completion.
//
// AsyncDevice reproduces those three properties over any backing PageDevice:
// submissions enter an unbounded queue served by QueueDepth worker
// goroutines (the device channels) or by an io_uring ring, and completions
// are dispatched in completion order to a single dispatcher goroutine (the
// paper's callback thread). SyncDevice is the blocking read path of the
// synchronous baselines (§3.5), and starts no goroutines. Both charge an
// optional simulated latency, which makes the I/O-to-CPU cost ratio c of
// §3.3 controllable, so overlap effects are measurable regardless of host
// hardware.
package ssd

import (
	"context"
	"errors"
	"sync"

	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
)

// PageDevice is synchronous, read-only page-granular storage.
type PageDevice interface {
	// ReadPages reads count consecutive pages starting at page first into a
	// freshly allocated buffer of count*PageSize() bytes.
	ReadPages(first uint32, count int) ([]byte, error)
	// ReadPagesInto is ReadPages into a caller-supplied buffer, which must
	// hold at least count*PageSize() bytes; only that prefix is written. It
	// is the read the asynchronous layer issues, into recycled arena
	// buffers.
	ReadPagesInto(buf []byte, first uint32, count int) error
	// NumPages returns the number of pages on the device.
	NumPages() uint32
	// PageSize returns the page size in bytes.
	PageSize() int
	// Close releases resources.
	Close() error
}

// Common device errors.
var (
	ErrOutOfRange = errors.New("ssd: page out of range")
	ErrClosed     = errors.New("ssd: device closed")
	// ErrTooManyPages reports a backing file whose page count does not fit
	// the uint32 page-address space; opening such a file must fail instead
	// of silently truncating the count.
	ErrTooManyPages = errors.New("ssd: page count exceeds uint32 address space")
)

// SyncDevice reads through a backing PageDevice synchronously, charging the
// latency model and accounting each read — the access pattern of MGT, which
// uses synchronous I/O only (§3.5), of the other baselines' store
// conversions and of the Shard2D block loads. It starts no goroutines and
// owns nothing, so it needs no Close. AsyncDevice embeds one as its own
// synchronous path.
type SyncDevice struct {
	dev  PageDevice
	opts AsyncOptions

	mu sync.Mutex
	th Throttle
}

// NewSyncDevice returns a synchronous device over dev. Of opts it uses
// Latency, Metrics, Context and Events.
func NewSyncDevice(dev PageDevice, opts AsyncOptions) *SyncDevice {
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	return &SyncDevice{dev: dev, opts: opts}
}

// PageSize returns the backing device's page size.
func (d *SyncDevice) PageSize() int { return d.dev.PageSize() }

// NumPages returns the backing device's page count.
func (d *SyncDevice) NumPages() uint32 { return d.dev.NumPages() }

// ReadPages reads count pages starting at first, blocking the caller for
// the read and its simulated latency. Once the device context is done it
// fails fast with the context's error.
func (d *SyncDevice) ReadPages(first uint32, count int) ([]byte, error) {
	if err := d.opts.Context.Err(); err != nil {
		return nil, err
	}
	sw := metrics.StartStopwatch()
	d.mu.Lock()
	d.th.Charge(d.opts.Latency.Cost(count))
	d.mu.Unlock()
	data, err := d.dev.ReadPages(first, count)
	if m := d.opts.Metrics; m != nil {
		m.AddSyncReads(1)
		m.AddIOWait(sw.Elapsed())
	}
	if err == nil {
		d.note(events.PagesRead, int64(count))
	}
	return data, err
}

// note accounts one device-level observation — pages transferred by any
// read path, or a native-backend event — on both outlets: the run's
// collector and the event sink.
func (d *SyncDevice) note(kind events.Kind, n int64) {
	e := events.Event{Kind: kind, Iteration: -1, N: n}
	if m := d.opts.Metrics; m != nil {
		m.Event(e)
	}
	if s := d.opts.Events; s != nil {
		s.Event(e)
	}
}
