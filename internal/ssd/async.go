package ssd

import (
	"context"
	"sync"
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

// AsyncOptions configures an AsyncDevice, and — QueueDepth aside — a
// SyncDevice.
type AsyncOptions struct {
	// QueueDepth is the number of device channels (concurrently progressing
	// requests), modelling FlashSSD internal parallelism. Default 8.
	QueueDepth int
	// Latency is the simulated latency model. Zero disables simulation.
	// A non-zero model forces the worker-pool engine even over a ring
	// device: simulated per-channel latency and kernel completion order
	// cannot coexist.
	Latency Latency
	// Metrics, if non-nil, receives page-read and async counters.
	Metrics *metrics.Collector
	// Context, if non-nil, cancels the device: once it is done, queued and
	// newly submitted requests complete immediately with the context's
	// error (callbacks still run, so Drain and Close unblock as usual) and
	// the synchronous paths fail fast. Defaults to context.Background().
	Context context.Context
	// Events, if non-nil, receives a PagesRead progress event per completed
	// read, plus the native-backend kinds
	// (SubmittedBatch/RingDepth/DirectFallback) where they apply.
	Events events.Sink
}

// request is one queued asynchronous read.
type request struct {
	first uint32
	count int
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

// AsyncDevice adds AsyncRead semantics on top of a PageDevice.
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
// Every read lands in a buffer from an aligned arena. AsyncReadOwned hands
// it to the callback to keep until it is given back through Recycle;
// AsyncRead recycles it as soon as the callback returns, so the data slice
// it delivers is valid only for the duration of the callback.
//
// The embedded SyncDevice is the blocking path, ReadPages, through the same
// latency model and outlets.
type AsyncDevice struct {
	*SyncDevice
	queue   *reqQueue
	compl   chan completion
	done    chan struct{} // closed when the dispatcher has exited
	pending sync.WaitGroup
	workers sync.WaitGroup // worker/ring engine goroutines, joined by Close
	once    sync.Once
	pool    *arena.Arena

	// Ring engine: set when dev is a ringDevice with a live ring and the
	// latency model is zero.
	ring     ringDevice
	slots    *ringSlots
	slotFree chan uint64
}

type completion struct {
	data []byte
	err  error
	cb   func(data []byte, err error)
}

// NewAsyncDevice starts the device channels and the callback dispatcher.
// Close must be called to release them.
func NewAsyncDevice(dev PageDevice, opts AsyncOptions) *AsyncDevice {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	d := &AsyncDevice{
		SyncDevice: NewSyncDevice(dev, opts),
		queue:      newReqQueue(),
		done:       make(chan struct{}),
		compl:      make(chan completion, opts.QueueDepth*2),
		pool:       arena.New(DirectAlign),
	}
	if ip, ok := dev.(InfoProvider); ok {
		if info := ip.BackendInfo(); info.Backend == BackendNative && !info.Direct {
			d.note(events.DirectFallback, 1)
		}
	}
	if rd, ok := dev.(ringDevice); ok && rd.RingEnabled() && opts.Latency == (Latency{}) {
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

// QueueDepth returns the number of device channels, the default resolved.
func (d *AsyncDevice) QueueDepth() int { return d.opts.QueueDepth }

// AsyncReadOwned submits an asynchronous read of count pages starting at
// first — AsyncRead(pid, Callback, Args) in the paper. cb runs on the
// callback dispatcher goroutine when the read completes. The data slice
// stays valid after cb returns, and the caller must hand it back through
// Recycle once every consumer is done with it: the I/O scheduler decodes a
// coalesced read's segments on worker goroutines after the callback has
// moved on.
func (d *AsyncDevice) AsyncReadOwned(first uint32, count int, cb func(data []byte, err error)) {
	if m := d.opts.Metrics; m != nil {
		m.AddAsyncReads(1)
	}
	d.pending.Add(1)
	d.queue.push(request{first: first, count: count, cb: cb})
}

// AsyncRead is AsyncReadOwned with the buffer recycled as soon as cb
// returns, so data is valid only until then.
func (d *AsyncDevice) AsyncRead(first uint32, count int, cb func(data []byte, err error)) {
	d.AsyncReadOwned(first, count, func(data []byte, err error) {
		cb(data, err)
		d.Recycle(data)
	})
}

// Recycle returns a buffer delivered by an AsyncReadOwned callback to the
// device's arena. nil and foreign buffers are ignored, so error-path
// callers need no guards.
func (d *AsyncDevice) Recycle(data []byte) { d.pool.Release(data) }

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
	pageSize := d.PageSize()
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
		if !d.serveCancelled(req) {
			th.Charge(d.opts.Latency.Cost(req.count))
			d.compl <- d.read(req)
		}
	}
}

// serveCancelled completes req on the calling engine goroutine once the
// device context is done, and reports whether it did: cancellation drains
// queued requests without their I/O (and its simulated latency), and
// their callbacks still run with the context's error, so Drain and Close
// unblock.
func (d *AsyncDevice) serveCancelled(req request) bool {
	err := d.opts.Context.Err()
	if err != nil {
		d.compl <- completion{err: err, cb: req.cb}
	}
	return err != nil
}

// read performs req's read into an arena buffer on the calling goroutine
// and returns its completion. A non-positive count gets no buffer, and the
// device's range error.
func (d *AsyncDevice) read(req request) completion {
	var buf []byte
	if req.count > 0 {
		buf = d.pool.Acquire(req.count * d.PageSize())
	}
	return d.readDone(req, buf, d.dev.ReadPagesInto(buf, req.first, req.count))
}

// readDone builds the completion of a read into arena buffer buf: on
// success buf is the data, which the callback owns; on failure it goes
// straight back to the arena.
func (d *AsyncDevice) readDone(req request, buf []byte, err error) completion {
	if err != nil {
		d.pool.Release(buf)
		return completion{err: err, cb: req.cb}
	}
	d.note(events.PagesRead, int64(req.count))
	return completion{data: buf, cb: req.cb}
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

// stageOne serves one request on the ring engine: a read becomes a staged
// SQE; a cancelled or empty one completes here, as on the worker pool.
func (d *AsyncDevice) stageOne(req request) {
	if d.serveCancelled(req) {
		return
	}
	if req.count <= 0 {
		d.compl <- d.read(req) // canonical range error
		return
	}
	slot := d.acquireSlot()
	buf := d.pool.Acquire(req.count * d.PageSize())
	if err := d.ring.PrepareRead(slot, buf, req.first, req.count); err != nil {
		d.slotFree <- slot
		d.compl <- d.readDone(req, buf, err)
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
		d.compl <- d.readDone(e.req, e.buf, err)
	}
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
			err = d.dev.ReadPagesInto(e.buf, e.req.first, e.req.count)
		}
		d.slotFree <- tag
		d.compl <- d.readDone(e.req, e.buf, err)
	}
}

// dispatcher is the callback thread, and the one completion path of both
// engines: it runs completion callbacks serially in completion order,
// marking each request done, until Close closes the completion channel
// behind the last engine.
func (d *AsyncDevice) dispatcher() {
	defer close(d.done)
	for c := range d.compl {
		c.cb(c.data, c.err)
		d.pending.Done()
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
