package core

import (
	"fmt"
	"slices"
	"sync"

	"github.com/optlab/opt/internal/buffer"
	"github.com/optlab/opt/internal/events"
)

// extGroup is one coalesced external read: a maximal run of
// consecutive-page requests from the list L merged into a single vectored
// device submission. Segment i of the read covers reqs[i] and spans
// spans[i] pages.
type extGroup struct {
	first      uint32
	pages      int      // total pages = sum(spans)
	spans      []int    // page span per constituent, in segment order
	reqs       []extReq // constituents, ascending page order (aliases L)
	left       int      // constituents not yet decoded (release)
	prefetched bool     // issued while another read was already in flight
	data       []byte   // owned read buffer, recycled when left hits 0
}

// residentReq is a request whose chunk was already resident in the external
// pool when the request list was coalesced; it is served without I/O. The
// external pass pins the chunk from coalesce time until processing
// finishes; the load takes it out of the pool.
type residentReq struct {
	c   *buffer.Chunk
	req extReq
}

// pass is one of the two reads of an iteration: the internal-area load
// (Algorithm 3 lines 6–8) or the external request list L (Algorithm 9).
// Both run through the same scheduler and differ only in these values,
// fixed per run by newRunner.
type pass struct {
	area string // "internal" or "external", for error messages
	// window bounds the pages admitted and not yet decoded (admitOne); in
	// the external pass, plus the pool's pages.
	window  int
	maxRead int // pages per coalesced read (coalesce)
	// keep marks the external pass: a resident chunk is pinned where it is,
	// and a decoded one enters the external pool. The load takes resident
	// chunks out of the pool and keeps none: loadChunk recycles them.
	keep bool
}

// ioSched drives one pass of one iteration through the device (DESIGN.md
// §9). It replaces the one-read-at-a-time issue chain of Algorithm 9 lines
// 9–13 with a windowed scheduler: requests touching consecutive pages are
// coalesced into vectored reads, up to depth reads are kept in flight
// (bounded read-ahead) within the pass's page window, and pool-resident
// chunks are processed without touching the device. The Algorithm 4
// loading order — the next iteration's internal pages last, for the Δin_io
// credit — is preserved at read granularity by issuing groups in
// descending page order.
type ioSched struct {
	r    *runner
	s    *sched // set by runParallel; nil in Serial mode and for the load: work runs on the callback thread
	iter int    // iteration index stamped on the events this scheduler emits
	pass pass
	// reused is the pages served from the external pool, written by start
	// on the caller before the first read is issued.
	reused int

	mu        sync.Mutex
	queue     []extGroup // issue order (descending page); queue[idx:] unissued
	idx       int
	inflight  int  // coalesced reads submitted but not yet completed
	inPages   int  // pages admitted to the window and not yet decoded
	remaining int  // constituent requests (incl. residents) not yet retired
	pumping   bool // a goroutine holds the pumper role: start, or one inside issue
	done      chan struct{}
}

func (r *runner) newIOSched(iter int, p pass) *ioSched {
	return &ioSched{r: r, iter: iter, pass: p, done: make(chan struct{})}
}

// start coalesces the request list, consumes the pool-resident requests,
// and then issues the initial read window. Residents come first because
// the load's consumer, loadChunk, writes the internal area without a lock:
// with s == nil it would otherwise run on the caller while a read's
// callback runs it too. So start holds the pumper role from the outset,
// and a resident's retire cannot issue a read. start returns without
// waiting for completions; wait blocks until every constituent has retired.
func (io *ioSched) start(reqs []extReq) {
	groups, residents := io.r.coalesce(reqs, io.pass)
	io.mu.Lock()
	io.queue = groups
	io.idx = 0
	io.remaining = len(reqs)
	io.pumping = true
	io.mu.Unlock()
	if len(reqs) == 0 {
		io.finish()
		return
	}
	for i := range residents {
		io.processResident(residents[i])
	}
	io.issue()
}

// wait blocks until every request of the pass has retired.
func (io *ioSched) wait() { <-io.done }

// pump issues queued groups while the read-ahead window has room. Only one
// goroutine pumps at a time; concurrent callers hand their wakeup to the
// active pumper, which re-checks the window after every issue.
func (io *ioSched) pump() {
	io.mu.Lock()
	if io.pumping {
		io.mu.Unlock()
		return
	}
	io.pumping = true
	io.mu.Unlock()
	io.issue()
}

// issue is the pumper's loop: it issues groups until admitOne, which then
// gives up the pumper role, refuses one.
func (io *ioSched) issue() {
	for {
		g := io.admitOne()
		if g == nil {
			return
		}
		io.issueGroup(g)
	}
}

// admitOne pops the next group if the window has room — a group is always
// admitted into an empty window, however large; further groups need a free
// read-ahead slot and page budget — and accounts it as in flight. When
// nothing can be admitted it releases the pumper role and returns nil,
// atomically with the final check so a concurrent budget release cannot be
// lost between the check and the release.
func (io *ioSched) admitOne() *extGroup {
	io.mu.Lock()
	defer io.mu.Unlock()
	if io.idx < len(io.queue) && (io.inPages == 0 || io.inflight < io.r.prefetchDepth) {
		g := &io.queue[io.idx]
		if io.fits(g.pages) || io.inPages == 0 {
			io.idx++
			g.prefetched = io.inflight > 0
			io.inflight++
			io.inPages += g.pages
			return g
		}
	}
	io.pumping = false
	return nil
}

// fits reports whether pages more fit the pass's window. The external pass
// shares it with the pool: what is on the device or awaiting decode, plus
// every chunk resident, at most 2·m_ex pages. To make room it evicts the
// pool's unpinned chunks, oldest first — in the order Insert would evict
// them anyway — but never a pinned one. The caller holds io.mu.
func (io *ioSched) fits(pages int) bool {
	room := io.pass.window - io.inPages - pages
	if !io.pass.keep {
		return room >= 0
	}
	return io.r.pool.TrimTo(room) <= room
}

// issueGroup submits one coalesced read. Under cancellation the group is
// retired synchronously without touching the device; the pump loop then
// drains the rest of the queue the same way, without recursion.
func (io *ioSched) issueGroup(g *extGroup) {
	r := io.r
	if err := r.gctx.Err(); err != nil {
		r.fail(err)
		io.readDone(g, err)
		for _, span := range g.spans {
			io.release(g, span, nil)
			io.retire()
		}
		return
	}
	if len(g.reqs) > 1 {
		r.note(events.Event{Kind: events.CoalescedRead, Iteration: io.iter, N: int64(g.pages)})
	}
	if r.seams.disableMicroOverlap {
		// Ablation: synchronous vectored read, no overlap — completions run
		// inline on the pumper.
		data, err := r.dev.ReadPages(g.first, g.pages)
		io.readDone(g, err)
		io.scatter(g, data, err)
		return
	}
	// Owned read: segment decode runs on scheduler workers after the
	// completion callback returns, so the buffer must outlive the callback.
	// The group keeps it until its last constituent retires.
	r.dev.AsyncReadOwned(g.first, g.pages, func(data []byte, err error) {
		g.data = data
		io.readDone(g, err)
		io.scatter(g, data, err)
	})
}

// scatter fans a synchronously completed group read out to its segments,
// mirroring ssd.AsyncReadScatter's slicing.
func (io *ioSched) scatter(g *extGroup, data []byte, err error) {
	if err != nil {
		for seg := range g.reqs {
			io.handleSeg(g, seg, nil, err)
		}
		return
	}
	pageSize := io.r.dev.PageSize()
	off := 0
	for seg, span := range g.spans {
		end := off + span*pageSize
		io.handleSeg(g, seg, data[off:end:end], nil)
		off = end
	}
}

// readDone retires one in-flight read, accounts the read-ahead outcome, and
// refills the window — before any segment is processed, so the next reads
// overlap this group's decode and intersection work.
func (io *ioSched) readDone(g *extGroup, err error) {
	r := io.r
	io.mu.Lock()
	io.inflight--
	io.mu.Unlock()
	if g.prefetched {
		kind := events.PrefetchHit
		if err != nil {
			kind = events.PrefetchWasted
		}
		r.note(events.Event{Kind: kind, Iteration: io.iter, N: 1})
	}
	io.pump()
}

// handleSeg consumes one segment of a completed group read: decode, then
// the pass's consumer. In Parallel mode the external pass's CPU work runs
// as an external-class task; otherwise it runs on the caller (the device's
// callback thread), with no closure, so that path allocates nothing per
// chunk.
func (io *ioSched) handleSeg(g *extGroup, seg int, data []byte, err error) {
	if err != nil {
		req := g.reqs[seg]
		io.r.fail(fmt.Errorf("core: loading %s pages [%d,+%d): %w", io.pass.area, req.first, req.span, err))
		io.release(g, req.span, nil)
		io.retire()
		return
	}
	if io.s != nil {
		io.s.submit(classExternal, func() { io.decodeSeg(g, seg, data) })
	} else {
		io.decodeSeg(g, seg, data)
	}
}

// decodeSeg decodes one segment into a chunk, releases the segment's raw
// pages — the external pass inserting the chunk into the pool, pinned once,
// in the same step — refills the window, and hands the chunk to consume.
func (io *ioSched) decodeSeg(g *extGroup, seg int, data []byte) {
	req := g.reqs[seg]
	c, err := io.r.decodeChunk(req.first, req.span, data)
	io.release(g, req.span, c)
	if err != nil {
		io.r.fail(err)
		io.retire()
		return
	}
	io.pump()
	io.consume(c, req)
}

// release takes span decoded (or failed) pages of g out of the window, and
// recycles g's read buffer once its last segment is released. A decoded
// external chunk c enters the pool in the same critical section (io.mu, then
// pool.mu), so the window and the pool never count its pages twice or not
// at all: inPages + pool.UsedPages() is conserved, and admitOne never sees
// room that the insert is about to take back.
func (io *ioSched) release(g *extGroup, span int, c *buffer.Chunk) {
	io.mu.Lock()
	if c != nil && io.pass.keep {
		io.r.pool.Insert(c)
	}
	io.inPages -= span
	g.left--
	var recycle []byte
	if g.left == 0 {
		recycle, g.data = g.data, nil
	}
	io.mu.Unlock()
	if recycle != nil {
		io.r.dev.Recycle(recycle)
	}
}

// processResident serves one request from a chunk found in the external
// pool at coalesce time — the Δin reuse path that needs no I/O. Like
// handleSeg it runs the consumer inline when there is no task scheduler.
func (io *ioSched) processResident(res residentReq) {
	io.reused += res.c.NumPages
	io.r.mx.AddReusedPages(int64(res.c.NumPages))
	if io.s != nil {
		io.s.submit(classExternal, func() { io.consume(res.c, res.req) })
	} else {
		io.consume(res.c, res.req)
	}
}

// consume is the pass's consumer of one chunk, resident or just decoded:
// the load enters it into the internal area, which recycles it; the
// external pass runs ExternalTriangle over the candidates and unpins it.
// Then the request retires.
func (io *ioSched) consume(c *buffer.Chunk, req extReq) {
	if io.pass.keep {
		io.r.processExternal(c, req)
		io.r.pool.Unpin(c.FirstPage)
	} else {
		io.r.loadChunk(c)
	}
	io.retire()
}

// retire marks one request done and refills the window: a failed segment
// was only just released, and in the external pass a chunk was only just
// unpinned, which admitOne may now evict.
func (io *ioSched) retire() {
	io.mu.Lock()
	io.remaining--
	finished := io.remaining == 0
	io.mu.Unlock()
	if finished {
		io.finish()
		return
	}
	io.pump()
}

// finish closes the pass exactly once: retire reaches zero exactly once,
// and the empty-list case calls it directly from start.
func (io *ioSched) finish() {
	close(io.done)
	if io.s != nil {
		io.s.close(classExternal)
	}
}

// coalesce partitions the ascending request list into groups of
// consecutive-page runs of at most p.maxRead pages each, splitting out
// requests whose chunks are already pool-resident (pinned here by the
// external pass, taken out of the pool by the load; served without I/O).
// Groups are returned in descending page order, preserving the Algorithm 4
// loading order at read granularity. All returned slices alias runner
// scratch reused across passes.
func (r *runner) coalesce(reqs []extReq, p pass) ([]extGroup, []residentReq) {
	groups := r.groupScratch[:0]
	residents := r.residentScratch[:0]
	if cap(r.spanScratch) < len(reqs) {
		r.spanScratch = make([]int, 0, len(reqs))
	}
	spans := r.spanScratch[:0]
	for i := 0; i < len(reqs); {
		var c *buffer.Chunk
		if p.keep {
			c = r.pool.Lookup(reqs[i].first)
		} else {
			c = r.pool.Take(reqs[i].first)
		}
		if c != nil {
			residents = append(residents, residentReq{c: c, req: reqs[i]})
			i++
			continue
		}
		j := i + 1
		pages := reqs[i].span
		for j < len(reqs) &&
			reqs[j].first == reqs[j-1].first+uint32(reqs[j-1].span) &&
			pages+reqs[j].span <= p.maxRead &&
			!r.pool.Contains(reqs[j].first) {
			pages += reqs[j].span
			j++
		}
		base := len(spans)
		for k := i; k < j; k++ {
			spans = append(spans, reqs[k].span)
		}
		groups = append(groups, extGroup{
			first: reqs[i].first,
			pages: pages,
			spans: spans[base:len(spans):len(spans)],
			reqs:  reqs[i:j:j],
			left:  j - i,
		})
		i = j
	}
	r.spanScratch = spans
	slices.Reverse(groups)
	r.groupScratch = groups
	r.residentScratch = residents
	return groups, residents
}
