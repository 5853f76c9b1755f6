package ssd

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/buffer/arena"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
)

// Latency is a simulated device latency model: a read of k consecutive
// pages takes PerRead + k*PerPage inside one device channel. Zero values
// disable simulation (reads cost only the backing device's real time).
type Latency struct {
	PerRead time.Duration // fixed submission/seek overhead per request
	PerPage time.Duration // streaming cost per page
}

// Cost returns the simulated duration of a count-page read.
func (l Latency) Cost(count int) time.Duration {
	return l.PerRead + time.Duration(count)*l.PerPage
}

// AsyncOptions configures an AsyncDevice.
type AsyncOptions struct {
	// QueueDepth is the number of device channels (concurrently progressing
	// requests), modelling FlashSSD internal parallelism. Default 8.
	QueueDepth int
	// Latency is the simulated latency model. Zero disables simulation.
	// A non-zero model forces the worker-pool engine even over a ring
	// device: simulated per-channel latency and kernel completion order
	// cannot coexist.
	Latency Latency
	// Metrics, if non-nil, receives page-read/write and async counters.
	Metrics *metrics.Collector
	// Context, if non-nil, cancels the device: once it is done, queued and
	// newly submitted requests complete immediately with the context's
	// error (callbacks still run, so Drain and Close unblock as usual) and
	// the synchronous paths fail fast. Defaults to context.Background().
	Context context.Context
	// Events, if non-nil, receives PagesRead/PagesWritten progress events
	// per completed request, plus the native-backend kinds
	// (SubmittedBatch/RingDepth/DirectFallback) where they apply.
	Events events.Sink
}

// request is one queued asynchronous operation.
type request struct {
	first uint32
	count int
	write []byte // nil for reads
	owned bool   // caller recycles the buffer (AsyncReadOwned)
	cb    func(data []byte, err error)
}

// ringDevice is the kernel-completion-ring contract the native Linux
// device offers (native_linux.go). The submitter goroutine owns
// PrepareRead/Submit/SubmitNop; the reaper goroutine owns WaitCQE.
type ringDevice interface {
	RingEnabled() bool
	RingSlots() int
	PrepareRead(tag uint64, buf []byte, first uint32, count int) error
	Submit() (int, error)
	SubmitNop(tag uint64) error
	WaitCQE() (tag uint64, n int, err error, ok bool)
}

// nopTag is the reserved user_data value of the shutdown no-op; request
// tags are slot indices, far below it.
const nopTag = ^uint64(0)

// AsyncDevice adds AsyncRead/AsyncWrite semantics on top of a PageDevice.
//
// Requests enter an unbounded submission queue. Two engines can drain it:
//
//   - The portable worker pool: QueueDepth worker goroutines (the device
//     channels) perform the reads, each through its own latency throttle.
//   - The ring engine, when the backing device is a native Linux device
//     with a live io_uring and no simulated latency: one submitter
//     goroutine stages batched SQEs and one reaper goroutine collects
//     CQEs, so a whole burst of coalesced reads costs one syscall.
//
// Either way each completion is handed, in completion order, to a single
// dispatcher goroutine that runs the registered callback — the role the
// paper assigns to the callback thread. Callbacks may submit further
// asynchronous requests (Algorithm 9 lines 9–13) without deadlock because
// the submission queue is unbounded.
//
// Buffer lifetime: when the backing device supports allocation-free reads
// (IntoReader), read buffers come from an aligned arena and are recycled
// as soon as the callback returns. The data slice passed to a callback is
// therefore valid only for the duration of the callback; callers that need
// the bytes longer either copy or submit through AsyncReadOwned, whose
// buffer survives the callback until handed back via Recycle.
type AsyncDevice struct {
	dev     PageDevice
	opts    AsyncOptions
	queue   *reqQueue
	compl   chan completion
	done    chan struct{} // closed when the dispatcher has exited
	pending sync.WaitGroup
	workers sync.WaitGroup // worker/ring engine goroutines, joined by Close
	once    sync.Once

	// Allocation-free read path: set when dev implements IntoReader.
	into IntoReader
	pool *arena.Arena

	// Ring engine: set when dev is a ringDevice with a live ring and the
	// latency model is zero.
	ring     ringDevice
	slots    *ringSlots
	slotFree chan uint64

	// Request accounting: submissions and retirements of asynchronous
	// requests, exposed so schedulers and tests can observe the in-flight
	// depth without instrumenting callbacks.
	submitted atomic.Int64
	completed atomic.Int64

	syncMu sync.Mutex
	syncTh Throttle // throttle for the synchronous path
}

type completion struct {
	data    []byte
	err     error
	cb      func(data []byte, err error)
	recycle []byte // arena buffer to release once cb has returned
}

// NewAsyncDevice starts the device channels and the callback dispatcher.
// Close must be called to release them.
func NewAsyncDevice(dev PageDevice, opts AsyncOptions) *AsyncDevice {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	d := &AsyncDevice{
		dev:   dev,
		opts:  opts,
		queue: newReqQueue(),
		done:  make(chan struct{}),
		compl: make(chan completion, opts.QueueDepth*2),
	}
	d.into, _ = dev.(IntoReader)
	if d.into != nil {
		d.pool = arena.New(DirectAlign)
	}
	if ip, ok := dev.(InfoProvider); ok {
		if info := ip.BackendInfo(); info.Backend == BackendNative && !info.Direct {
			d.note(events.DirectFallback, 1)
		}
	}
	if rd, ok := dev.(ringDevice); ok && rd.RingEnabled() && d.into != nil && opts.Latency == (Latency{}) {
		d.ring = rd
		n := rd.RingSlots()
		d.slots = &ringSlots{entries: make([]slotEntry, n)}
		d.slotFree = make(chan uint64, n)
		for i := 0; i < n; i++ {
			d.slotFree <- uint64(i)
		}
		d.note(events.RingDepth, int64(n))
		d.workers.Add(2)
		go d.ringSubmitter()
		go d.ringReaper()
	} else {
		for i := 0; i < opts.QueueDepth; i++ {
			d.workers.Add(1)
			go d.worker()
		}
	}
	go d.dispatcher()
	return d
}

// PageSize returns the backing device's page size.
func (d *AsyncDevice) PageSize() int { return d.dev.PageSize() }

// NumPages returns the backing device's page count.
func (d *AsyncDevice) NumPages() uint32 { return d.dev.NumPages() }

// QueueDepth returns the number of device channels, the default resolved.
func (d *AsyncDevice) QueueDepth() int { return d.opts.QueueDepth }

// Metrics returns the collector, which may be nil.
func (d *AsyncDevice) Metrics() *metrics.Collector { return d.opts.Metrics }

// RingActive reports whether the io_uring engine is driving this device.
func (d *AsyncDevice) RingActive() bool { return d.ring != nil }

// AsyncRead submits an asynchronous read of count pages starting at first.
// cb runs on the callback dispatcher goroutine when the read completes; it
// corresponds to AsyncRead(pid, Callback, Args) in the paper. The data
// slice is valid only until cb returns (see the buffer-lifetime note on
// AsyncDevice).
func (d *AsyncDevice) AsyncRead(first uint32, count int, cb func(data []byte, err error)) {
	d.submit(request{first: first, count: count, cb: cb})
}

// submit queues one asynchronous request for whichever engine drains the
// queue.
func (d *AsyncDevice) submit(req request) {
	if m := d.opts.Metrics; m != nil && req.write == nil {
		m.AddAsyncReads(1)
	}
	d.submitted.Add(1)
	d.pending.Add(1)
	d.queue.push(req)
}

// AsyncReadOwned is AsyncRead with caller-managed buffer lifetime: the
// data slice stays valid after the callback returns, and the caller must
// hand it back through Recycle once every consumer is done with it. The
// I/O scheduler uses it for coalesced reads whose segments are decoded on
// worker goroutines after the completion callback has moved on.
func (d *AsyncDevice) AsyncReadOwned(first uint32, count int, cb func(data []byte, err error)) {
	d.submit(request{first: first, count: count, owned: true, cb: cb})
}

// Recycle returns a buffer delivered by an AsyncReadOwned callback to the
// device's arena. nil and foreign buffers are ignored, so error-path and
// portable-path callers need no guards.
func (d *AsyncDevice) Recycle(data []byte) {
	if d.pool != nil && data != nil {
		d.pool.Release(data)
	}
}

// AsyncReadScatter submits one asynchronous vectored read covering
// len(spans) consecutive page runs: segment i spans spans[i] pages and
// begins where segment i-1 ends, with segment 0 starting at page first.
// The device performs a single read of the whole range (one submission,
// one latency charge; one SQE on the ring engine); on completion cb runs
// once per segment, in segment order, on the callback dispatcher, each
// receiving a sub-slice of the one read buffer — no copy. A failed read
// invokes cb for every segment with a nil data slice and the read's error,
// so each constituent fails exactly once.
func (d *AsyncDevice) AsyncReadScatter(first uint32, spans []int, cb func(seg int, data []byte, err error)) {
	total := 0
	for _, s := range spans {
		total += s
	}
	pageSize := d.dev.PageSize()
	d.AsyncRead(first, total, func(data []byte, err error) {
		if err != nil {
			for i := range spans {
				cb(i, nil, err)
			}
			return
		}
		off := 0
		for i, s := range spans {
			end := off + s*pageSize
			cb(i, data[off:end:end], nil)
			off = end
		}
	})
}

// AsyncWrite submits an asynchronous write. cb may be nil; if non-nil it
// runs on the dispatcher with a nil data slice.
func (d *AsyncDevice) AsyncWrite(first uint32, data []byte, cb func(data []byte, err error)) {
	d.submit(request{first: first, write: data, cb: cb})
}

// Submitted returns the number of asynchronous requests submitted so far.
func (d *AsyncDevice) Submitted() int64 { return d.submitted.Load() }

// Completed returns the number of asynchronous requests fully retired
// (callback returned, or no callback was registered).
func (d *AsyncDevice) Completed() int64 { return d.completed.Load() }

// InFlight returns the number of asynchronous requests submitted but not
// yet retired.
func (d *AsyncDevice) InFlight() int64 { return d.submitted.Load() - d.completed.Load() }

// ReadPages performs a synchronous read through the same latency model,
// blocking the caller — the access pattern of the MGT baseline, which uses
// synchronous I/O only (§3.5).
func (d *AsyncDevice) ReadPages(first uint32, count int) ([]byte, error) {
	if err := d.opts.Context.Err(); err != nil {
		return nil, err
	}
	sw := metrics.StartStopwatch()
	d.syncMu.Lock()
	d.syncTh.Charge(d.opts.Latency.Cost(count))
	d.syncMu.Unlock()
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

// WritePages performs a synchronous write through the latency model.
func (d *AsyncDevice) WritePages(first uint32, data []byte) error {
	if err := d.opts.Context.Err(); err != nil {
		return err
	}
	pages := len(data) / d.dev.PageSize()
	d.syncMu.Lock()
	d.syncTh.Charge(d.opts.Latency.Cost(pages))
	d.syncMu.Unlock()
	err := d.dev.WritePages(first, data)
	if err == nil {
		d.note(events.PagesWritten, int64(pages))
	}
	return err
}

// note accounts one device-level observation — pages transferred by any of
// the synchronous, worker-pool or ring paths, or a native-backend event —
// on both outlets: the run's collector and the event sink.
func (d *AsyncDevice) note(kind events.Kind, n int64) {
	e := events.Event{Kind: kind, Iteration: -1, N: n}
	if m := d.opts.Metrics; m != nil {
		m.Event(e)
	}
	if s := d.opts.Events; s != nil {
		s.Event(e)
	}
}

// retire marks one asynchronous request fully done: its callback has
// returned, or it never had one.
func (d *AsyncDevice) retire() {
	d.completed.Add(1)
	d.pending.Done()
}

// Drain blocks until every submitted asynchronous request has completed and
// its callback has returned.
func (d *AsyncDevice) Drain() { d.pending.Wait() }

// Close drains outstanding requests and stops the device goroutines,
// waiting until every worker and the dispatcher have returned. The backing
// device is not closed.
func (d *AsyncDevice) Close() {
	d.once.Do(func() {
		d.pending.Wait()
		d.queue.close()
		d.workers.Wait() // every engine goroutine is gone: no sender is left
		close(d.compl)
		<-d.done
	})
}

func (d *AsyncDevice) worker() {
	defer d.workers.Done()
	// Each worker is one device channel with its own latency throttle, so
	// aggregate throughput scales with QueueDepth as real NCQ channels do.
	var th Throttle
	for {
		req, ok := d.queue.pop(true)
		if !ok {
			return
		}
		if !d.serveInline(req, &th) {
			th.Charge(d.opts.Latency.Cost(req.count))
			d.finish(d.read(req))
		}
	}
}

// serveInline completes, on the calling engine goroutine, the requests
// neither engine gives a device channel or ring slot: everything once the
// device context is done, and writes. It reports whether req was one.
func (d *AsyncDevice) serveInline(req request, th *Throttle) bool {
	// Cancellation drains queued requests: skip the I/O (and its simulated
	// latency) and complete with the context's error so callbacks still run
	// and Drain/Close unblock.
	if err := d.opts.Context.Err(); err != nil {
		d.finish(completion{err: err, cb: req.cb})
		return true
	}
	if req.write == nil {
		return false
	}
	pages := len(req.write) / d.dev.PageSize()
	th.Charge(d.opts.Latency.Cost(pages))
	err := d.dev.WritePages(req.first, req.write)
	if err == nil {
		d.note(events.PagesWritten, int64(pages))
	}
	d.finish(completion{err: err, cb: req.cb})
	return true
}

// read performs req's read on the calling goroutine and returns its
// completion.
func (d *AsyncDevice) read(req request) completion {
	if d.into != nil && req.count > 0 {
		// Allocation-free path: read into a recycled arena buffer.
		buf := d.pool.Acquire(req.count * d.dev.PageSize())
		return d.readDone(req, buf, d.into.ReadPagesInto(buf, req.first, req.count))
	}
	data, err := d.dev.ReadPages(req.first, req.count)
	if err == nil {
		d.note(events.PagesRead, int64(req.count))
	}
	return completion{data: data, err: err, cb: req.cb}
}

// readDone builds the completion of a read into arena buffer buf: on
// success buf is the data, returned to the arena once the callback has
// consumed it unless the caller owns it; on failure it goes straight back.
func (d *AsyncDevice) readDone(req request, buf []byte, err error) completion {
	if err != nil {
		d.pool.Release(buf)
		return completion{err: err, cb: req.cb}
	}
	d.note(events.PagesRead, int64(req.count))
	c := completion{data: buf, cb: req.cb}
	if !req.owned {
		c.recycle = buf
	}
	return c
}

// ringSlots correlates in-flight ring submissions (tag = slot index) with
// their request and arena buffer. The submitter fills entries, the reaper
// takes them; the mutex publishes the entry across that goroutine pair.
type ringSlots struct {
	mu      sync.Mutex
	entries []slotEntry
}

type slotEntry struct {
	req  request
	buf  []byte
	used bool
}

func (s *ringSlots) set(tag uint64, req request, buf []byte) {
	s.mu.Lock()
	s.entries[tag] = slotEntry{req: req, buf: buf, used: true}
	s.mu.Unlock()
}

func (s *ringSlots) take(tag uint64) (slotEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tag >= uint64(len(s.entries)) || !s.entries[tag].used {
		return slotEntry{}, false
	}
	e := s.entries[tag]
	s.entries[tag] = slotEntry{}
	return e, true
}

func (s *ringSlots) takeAll() []slotEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []slotEntry
	for i := range s.entries {
		if s.entries[i].used {
			out = append(out, s.entries[i])
			s.entries[i] = slotEntry{}
		}
	}
	return out
}

// ringSubmitter is the ring engine's single SQ writer: it drains the
// submission queue, stages one SQE per read, and batches everything
// available into one io_uring_enter call — a burst of coalesced reads from
// the I/O scheduler costs one syscall instead of one goroutine hop each.
func (d *AsyncDevice) ringSubmitter() {
	defer d.workers.Done()
	for {
		req, ok := d.queue.pop(true)
		if !ok {
			d.flushBatch()
			// Wake the reaper; outstanding CQEs were all collected because
			// Close drains pending requests before closing the queue.
			_ = d.ring.SubmitNop(nopTag)
			return
		}
		for ; ok; req, ok = d.queue.pop(false) {
			d.stageOne(req)
		}
		d.flushBatch()
	}
}

// stageOne serves one request on the ring engine: reads become staged
// SQEs; everything else completes here, as on the worker pool.
func (d *AsyncDevice) stageOne(req request) {
	var th Throttle // the ring engine runs only without a latency model
	if d.serveInline(req, &th) {
		return
	}
	if req.count <= 0 {
		d.finish(d.read(req)) // canonical range error
		return
	}
	slot := d.acquireSlot()
	buf := d.pool.Acquire(req.count * d.dev.PageSize())
	if err := d.ring.PrepareRead(slot, buf, req.first, req.count); err != nil {
		d.slotFree <- slot
		d.finish(d.readDone(req, buf, err))
		return
	}
	d.slots.set(slot, req, buf)
}

// acquireSlot returns a free submission slot, flushing the staged batch
// first when it must block: staged reads have to reach the kernel before
// the submitter waits on their completions for a slot.
func (d *AsyncDevice) acquireSlot() uint64 {
	select {
	case s := <-d.slotFree:
		return s
	default:
		d.flushBatch()
		return <-d.slotFree
	}
}

// flushBatch pushes every staged SQE to the kernel in one enter call. A
// submit failure is only reachable once the ring fd is gone; the
// outstanding slots are failed so nothing hangs.
func (d *AsyncDevice) flushBatch() {
	n, err := d.ring.Submit()
	if n > 0 {
		d.note(events.SubmittedBatch, int64(n))
	}
	if err != nil {
		d.failOutstanding(err)
	}
}

// failOutstanding completes every read staged or in flight on the ring
// with err, so nothing hangs once the ring is unusable.
func (d *AsyncDevice) failOutstanding(err error) {
	for _, e := range d.slots.takeAll() {
		d.finish(d.readDone(e.req, e.buf, err))
	}
}

// finish is the one completion path of both engines: it hands the
// completion to the dispatcher, or retires a callback-less request on the
// spot.
func (d *AsyncDevice) finish(c completion) {
	if c.cb == nil {
		if c.recycle != nil {
			d.pool.Release(c.recycle)
		}
		d.retire()
		return
	}
	d.compl <- c
}

// ringReaper is the ring engine's single CQ reader: it blocks in
// io_uring_enter(GETEVENTS), correlates each CQE back to its request via
// the slot table, and forwards the completion to the dispatcher.
func (d *AsyncDevice) ringReaper() {
	defer d.workers.Done()
	for {
		tag, n, err, ok := d.ring.WaitCQE()
		if !ok {
			// The ring died under us (fd closed mid-run). Fail whatever is
			// outstanding so Drain and Close still unblock.
			d.failOutstanding(err)
			return
		}
		if tag == nopTag {
			return // the submitter's shutdown signal
		}
		e, valid := d.slots.take(tag)
		if !valid {
			continue
		}
		if err == nil && n < len(e.buf) {
			// Short ring read (racing truncation, signal). Re-read the
			// whole range through preadv rather than patching the tail.
			err = d.into.ReadPagesInto(e.buf, e.req.first, e.req.count)
		}
		d.slotFree <- tag
		d.finish(d.readDone(e.req, e.buf, err))
	}
}

// dispatcher is the callback thread: it executes completion callbacks
// serially in completion order and recycles the read buffer afterwards,
// until Close closes the completion channel behind the last engine.
func (d *AsyncDevice) dispatcher() {
	defer close(d.done)
	for c := range d.compl {
		c.cb(c.data, c.err)
		if c.recycle != nil {
			d.pool.Release(c.recycle)
		}
		d.retire()
	}
}

// reqQueue is an unbounded MPMC queue of requests. Consumed entries leave
// the head index behind rather than re-slicing, so the backing array keeps
// its capacity and a steady-state submit/complete loop stops allocating.
type reqQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []request
	head   int
	closed bool
}

func newReqQueue() *reqQueue {
	q := &reqQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *reqQueue) push(r request) {
	q.mu.Lock()
	q.items = append(q.items, r)
	// Signal under the mutex: an unlocked notify can land between a
	// worker's emptiness check and its park, and the request sits unserved
	// until the next push.
	q.cond.Signal()
	q.mu.Unlock()
}

// pop removes the head entry. With wait set it blocks while the queue is
// empty and open; ok is false when the queue is closed and drained, or —
// without wait, as the ring submitter gathers a batch — momentarily empty.
func (q *reqQueue) pop(wait bool) (r request, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for wait && q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return request{}, false
	}
	r = q.items[q.head]
	q.items[q.head] = request{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return r, true
}

func (q *reqQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
