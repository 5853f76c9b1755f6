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
	left       int      // constituents not yet retired
	prefetched bool     // issued while another read was already in flight
	data       []byte   // owned read buffer, recycled when left hits 0
}

// residentReq is a request whose chunk was already resident in the external
// pool when the request list was coalesced; it is served without I/O. The
// chunk is pinned from coalesce time until processing finishes.
type residentReq struct {
	c   *buffer.Chunk
	req extReq
}

// ioSched drives the external request list L of one iteration through the
// device (DESIGN.md §9). It replaces the one-read-at-a-time issue chain of
// Algorithm 9 lines 9–13 with a windowed scheduler: requests touching
// consecutive pages are coalesced into vectored reads, up to depth reads
// are kept in flight (bounded read-ahead), and pool-resident chunks are
// processed without touching the device. The Algorithm 4 loading order —
// the next iteration's internal pages last, for the Δin_io credit — is
// preserved at read granularity by issuing groups in descending page order.
type ioSched struct {
	r    *runner
	s    *sched // nil in Serial mode: processing runs on the callback thread
	iter int    // iteration index stamped on the events this scheduler emits

	mu        sync.Mutex
	queue     []extGroup // issue order (descending page); queue[idx:] unissued
	idx       int
	inflight  int  // coalesced reads submitted but not yet completed
	inPages   int  // pages admitted to the window and not yet fully retired
	remaining int  // constituent requests (incl. residents) not yet retired
	pumping   bool // a goroutine is inside the pump loop
	done      chan struct{}
}

func (r *runner) newIOSched(s *sched, iter int) *ioSched {
	return &ioSched{r: r, s: s, iter: iter, done: make(chan struct{})}
}

// start coalesces the request list, issues the initial read window, and
// then processes pool-resident requests — in that order, so the first reads
// are already in flight while resident chunks burn CPU. It returns without
// waiting for completions; wait blocks until every constituent has retired.
func (io *ioSched) start(reqs []extReq) {
	groups, residents := io.r.coalesce(reqs)
	io.mu.Lock()
	io.queue = groups
	io.idx = 0
	io.remaining = len(reqs)
	io.mu.Unlock()
	if len(reqs) == 0 {
		io.finish()
		return
	}
	io.pump()
	for i := range residents {
		io.processResident(residents[i])
	}
}

// wait blocks until the external phase of the iteration is done.
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
	if io.idx < len(io.queue) {
		g := &io.queue[io.idx]
		if io.inPages == 0 || (io.inflight < io.r.prefetchDepth && io.inPages+g.pages <= io.r.mEx) {
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

// issueGroup submits one coalesced read. Under cancellation the group is
// retired synchronously without touching the device; the pump loop then
// drains the rest of the queue the same way, without recursion.
func (io *ioSched) issueGroup(g *extGroup) {
	r := io.r
	if err := r.gctx.Err(); err != nil {
		r.fail(err)
		io.readDone(g, err)
		for range g.reqs {
			io.retire(g)
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

// handleSeg consumes one segment of a completed group read: decode, insert
// into the external pool, run ExternalTriangle over the candidates, retire.
// In Parallel mode the CPU work runs as an external-class task; in Serial
// mode it runs on the caller (the device's callback thread).
func (io *ioSched) handleSeg(g *extGroup, seg int, data []byte, err error) {
	r := io.r
	req := g.reqs[seg]
	if err != nil {
		r.fail(fmt.Errorf("core: loading external pages [%d,+%d): %w", req.first, req.span, err))
		io.retire(g)
		return
	}
	work := func() {
		c, derr := r.decodeChunk(req.first, req.span, data)
		if derr != nil {
			r.fail(derr)
			io.retire(g)
			return
		}
		r.pool.Insert(c) // pinned once
		r.processExternal(c, req)
		r.pool.Unpin(c.FirstPage)
		io.retire(g)
	}
	if io.s != nil {
		io.s.submit(classExternal, work)
	} else {
		work()
	}
}

// processResident serves one request from a chunk pinned in the external
// pool at coalesce time — the Δin-style reuse path that needs no I/O.
func (io *ioSched) processResident(res residentReq) {
	r := io.r
	r.mx.AddReusedPages(int64(res.c.NumPages))
	work := func() {
		r.processExternal(res.c, res.req)
		r.pool.Unpin(res.c.FirstPage)
		io.retire(nil)
	}
	if io.s != nil {
		io.s.submit(classExternal, work)
	} else {
		work()
	}
}

// retire marks one constituent done; g is nil for residents. Retiring a
// group's last constituent frees its page budget and tries to refill the
// read-ahead window.
func (io *ioSched) retire(g *extGroup) {
	io.mu.Lock()
	freed := false
	var recycle []byte
	if g != nil {
		g.left--
		if g.left == 0 {
			io.inPages -= g.pages
			freed = true
			recycle, g.data = g.data, nil
		}
	}
	io.remaining--
	finished := io.remaining == 0
	io.mu.Unlock()
	if recycle != nil {
		io.r.dev.Recycle(recycle)
	}
	if finished {
		io.finish()
		return
	}
	if freed {
		io.pump()
	}
}

// finish closes the external phase exactly once per iteration: retire
// reaches zero exactly once, and the empty-list case calls it directly
// from start.
func (io *ioSched) finish() {
	close(io.done)
	if io.s != nil {
		io.s.close(classExternal)
	}
}

// coalesce partitions the ascending request list into groups of
// consecutive-page runs of at most maxCoalesce pages each, splitting out
// requests whose chunks are already pool-resident (pinned here, processed
// without I/O). Groups are returned in descending page order, preserving
// the Algorithm 4 loading order at read granularity. All returned slices
// alias runner scratch reused across iterations.
func (r *runner) coalesce(reqs []extReq) ([]extGroup, []residentReq) {
	groups := r.groupScratch[:0]
	residents := r.residentScratch[:0]
	if cap(r.spanScratch) < len(reqs) {
		r.spanScratch = make([]int, 0, len(reqs))
	}
	spans := r.spanScratch[:0]
	for i := 0; i < len(reqs); {
		if c := r.pool.Lookup(reqs[i].first); c != nil {
			residents = append(residents, residentReq{c: c, req: reqs[i]})
			i++
			continue
		}
		j := i + 1
		pages := reqs[i].span
		for j < len(reqs) &&
			reqs[j].first == reqs[j-1].first+uint32(reqs[j-1].span) &&
			pages+reqs[j].span <= r.maxCoalesce &&
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
