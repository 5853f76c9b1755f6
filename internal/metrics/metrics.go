// Package metrics collects the cost counters used throughout the OPT
// reproduction: page reads and writes, intersection operations (the
// min(|n≻(u)|, |n≻(v)|) CPU-cost model of Eq. 3 in the paper), and wall-clock
// phase timers. All counters are safe for concurrent use.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/events"
)

// Collector accumulates cost counters for one algorithm run.
type Collector struct {
	pagesRead     atomic.Int64
	pagesWritten  atomic.Int64
	asyncReads    atomic.Int64
	syncReads     atomic.Int64
	intersectOps  atomic.Int64 // min-model CPU operations
	intersectCall atomic.Int64 // number of adjacency-list intersections
	triangles     atomic.Int64
	reusedPages   atomic.Int64 // internal-area loads served from buffered frames (Δin_io)
	ioWait        atomic.Int64 // nanoseconds spent blocked on I/O completion
	iterations    atomic.Int64 // completed outer-loop iterations (event-fed)
	morphs        atomic.Int64 // thread-morph transitions (event-fed)

	// I/O-scheduler counters (DESIGN.md §9).
	coalescedReads atomic.Int64 // vectored reads that merged ≥2 chunk requests
	coalescedPages atomic.Int64 // pages covered by those reads
	prefetchHits   atomic.Int64 // read-ahead completions whose data was consumed
	prefetchWasted atomic.Int64 // read-ahead completions whose data was dropped

	// Native-backend counters (DESIGN.md §14).
	submittedBatches atomic.Int64 // io_uring_enter calls that pushed ≥1 SQE
	batchedReads     atomic.Int64 // SQEs covered by those batches
	ringDepth        atomic.Int64 // SQ entries of the active ring (0 = no ring)
	directFallbacks  atomic.Int64 // O_DIRECT opens that fell back to buffered

	// Distributed-coordinator counters (DESIGN.md §15).
	shardsDispatched atomic.Int64 // shard-pair task dispatches (incl. retries)
	shardsRetried    atomic.Int64 // re-dispatches after agent loss / stragglers
	shardsMerged     atomic.Int64 // task results merged exactly once
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// AddPagesRead records n page reads.
func (c *Collector) AddPagesRead(n int64) { c.pagesRead.Add(n) }

// AddPagesWritten records n page writes.
func (c *Collector) AddPagesWritten(n int64) { c.pagesWritten.Add(n) }

// AddAsyncReads records n asynchronous read submissions.
func (c *Collector) AddAsyncReads(n int64) { c.asyncReads.Add(n) }

// AddSyncReads records n synchronous read calls.
func (c *Collector) AddSyncReads(n int64) { c.syncReads.Add(n) }

// AddIntersect records one adjacency-list intersection whose min-model cost
// is ops (= min(|a|, |b|) under the hash model of Eq. 3).
func (c *Collector) AddIntersect(ops int64) {
	c.intersectCall.Add(1)
	c.intersectOps.Add(ops)
}

// AddIntersections records calls intersections of ops total min-model cost
// in one step: a task that tallies locally flushes through here.
func (c *Collector) AddIntersections(calls, ops int64) {
	c.intersectCall.Add(calls)
	c.intersectOps.Add(ops)
}

// AddTriangles records n discovered triangles.
func (c *Collector) AddTriangles(n int64) { c.triangles.Add(n) }

// AddReusedPages records n internal-area page loads that were served from
// frames already resident in the buffer (the Δin_io credit of §3.3).
func (c *Collector) AddReusedPages(n int64) { c.reusedPages.Add(n) }

// AddCoalescedRead records one vectored read that merged several chunk
// requests into a single device submission covering pages pages.
func (c *Collector) AddCoalescedRead(pages int64) {
	c.coalescedReads.Add(1)
	c.coalescedPages.Add(pages)
}

// AddPrefetchHits records n read-ahead completions whose data was consumed.
func (c *Collector) AddPrefetchHits(n int64) { c.prefetchHits.Add(n) }

// AddPrefetchWasted records n read-ahead completions whose data was dropped
// (cancellation or read failure before processing).
func (c *Collector) AddPrefetchWasted(n int64) { c.prefetchWasted.Add(n) }

// AddSubmittedBatch records one io_uring submission batch covering n SQEs.
func (c *Collector) AddSubmittedBatch(n int64) {
	c.submittedBatches.Add(1)
	c.batchedReads.Add(n)
}

// SetRingDepth records the SQ-entry depth of the active completion ring.
// The maximum sticks, so a run over several devices reports the deepest.
func (c *Collector) SetRingDepth(n int64) {
	for {
		cur := c.ringDepth.Load()
		if n <= cur || c.ringDepth.CompareAndSwap(cur, n) {
			return
		}
	}
}

// AddDirectFallbacks records n O_DIRECT opens that fell back to buffered I/O.
func (c *Collector) AddDirectFallbacks(n int64) { c.directFallbacks.Add(n) }

// AddIOWait records d spent blocked waiting for I/O.
func (c *Collector) AddIOWait(d time.Duration) { c.ioWait.Add(int64(d)) }

// Event implements events.Sink, so a Collector can be attached directly to
// the execution engine's event layer and accumulate progress counters.
// Counter-bearing kinds map onto the corresponding counters. Every runner
// keeps its own collector, so one attached through engine.Options.Events
// counts beside it and never doubles it. The layers that still take a
// collector directly are ssd.AsyncOptions and diskio.CostModel: hand one
// there EITHER as Metrics OR inside Events, never both, or I/O counts
// double.
func (c *Collector) Event(e events.Event) {
	switch e.Kind {
	case events.PagesRead:
		c.AddPagesRead(e.N)
	case events.PagesWritten:
		c.AddPagesWritten(e.N)
	case events.TrianglesFound:
		c.AddTriangles(e.N)
	case events.IterationEnd:
		c.iterations.Add(1)
	case events.Morph:
		c.morphs.Add(e.N)
	case events.CoalescedRead:
		c.AddCoalescedRead(e.N)
	case events.PrefetchHit:
		c.AddPrefetchHits(e.N)
	case events.PrefetchWasted:
		c.AddPrefetchWasted(e.N)
	case events.SubmittedBatch:
		c.AddSubmittedBatch(e.N)
	case events.RingDepth:
		c.SetRingDepth(e.N)
	case events.DirectFallback:
		c.AddDirectFallbacks(e.N)
	case events.ShardDispatched:
		c.shardsDispatched.Add(1)
	case events.ShardRetried:
		c.shardsRetried.Add(1)
	case events.ShardMerged:
		c.shardsMerged.Add(1)
	}
}

// ShardsDispatched returns the shard-pair task dispatches observed
// (retries included).
func (c *Collector) ShardsDispatched() int64 { return c.shardsDispatched.Load() }

// ShardsRetried returns the shard-pair re-dispatches observed.
func (c *Collector) ShardsRetried() int64 { return c.shardsRetried.Load() }

// ShardsMerged returns the shard-pair results merged into the total.
func (c *Collector) ShardsMerged() int64 { return c.shardsMerged.Load() }

// Iterations returns the number of IterationEnd events observed.
func (c *Collector) Iterations() int64 { return c.iterations.Load() }

// Morphs returns the number of thread-morph transitions observed.
func (c *Collector) Morphs() int64 { return c.morphs.Load() }

// PagesRead returns the page-read count.
func (c *Collector) PagesRead() int64 { return c.pagesRead.Load() }

// PagesWritten returns the page-write count.
func (c *Collector) PagesWritten() int64 { return c.pagesWritten.Load() }

// AsyncReads returns the asynchronous read submission count.
func (c *Collector) AsyncReads() int64 { return c.asyncReads.Load() }

// SyncReads returns the synchronous read count.
func (c *Collector) SyncReads() int64 { return c.syncReads.Load() }

// IntersectOps returns the accumulated min-model CPU cost.
func (c *Collector) IntersectOps() int64 { return c.intersectOps.Load() }

// Intersections returns the number of adjacency-list intersections executed.
func (c *Collector) Intersections() int64 { return c.intersectCall.Load() }

// Triangles returns the number of triangles recorded.
func (c *Collector) Triangles() int64 { return c.triangles.Load() }

// ReusedPages returns the Δin_io page-reuse credit.
func (c *Collector) ReusedPages() int64 { return c.reusedPages.Load() }

// CoalescedReads returns the number of vectored reads that merged several
// chunk requests.
func (c *Collector) CoalescedReads() int64 { return c.coalescedReads.Load() }

// CoalescedPages returns the pages covered by coalesced reads.
func (c *Collector) CoalescedPages() int64 { return c.coalescedPages.Load() }

// PrefetchHits returns the read-ahead completions whose data was consumed.
func (c *Collector) PrefetchHits() int64 { return c.prefetchHits.Load() }

// PrefetchWasted returns the read-ahead completions whose data was dropped.
func (c *Collector) PrefetchWasted() int64 { return c.prefetchWasted.Load() }

// SubmittedBatches returns the number of io_uring submission batches.
func (c *Collector) SubmittedBatches() int64 { return c.submittedBatches.Load() }

// BatchedReads returns the SQEs covered by submission batches.
func (c *Collector) BatchedReads() int64 { return c.batchedReads.Load() }

// RingDepth returns the deepest completion ring observed (0 = no ring).
func (c *Collector) RingDepth() int64 { return c.ringDepth.Load() }

// DirectFallbacks returns the O_DIRECT opens that fell back to buffered I/O.
func (c *Collector) DirectFallbacks() int64 { return c.directFallbacks.Load() }

// IOWait returns the total time spent blocked on I/O.
func (c *Collector) IOWait() time.Duration { return time.Duration(c.ioWait.Load()) }

// Reset zeroes every counter.
func (c *Collector) Reset() {
	c.pagesRead.Store(0)
	c.pagesWritten.Store(0)
	c.asyncReads.Store(0)
	c.syncReads.Store(0)
	c.intersectOps.Store(0)
	c.intersectCall.Store(0)
	c.triangles.Store(0)
	c.reusedPages.Store(0)
	c.ioWait.Store(0)
	c.iterations.Store(0)
	c.morphs.Store(0)
	c.coalescedReads.Store(0)
	c.coalescedPages.Store(0)
	c.prefetchHits.Store(0)
	c.prefetchWasted.Store(0)
	c.submittedBatches.Store(0)
	c.batchedReads.Store(0)
	c.ringDepth.Store(0)
	c.directFallbacks.Store(0)
	c.shardsDispatched.Store(0)
	c.shardsRetried.Store(0)
	c.shardsMerged.Store(0)
}

// Snapshot is an immutable copy of a Collector's counters. The JSON tags
// make it the per-job metrics export of the optd status API; durations
// marshal as nanoseconds.
type Snapshot struct {
	PagesRead      int64 `json:"pages_read"`
	PagesWritten   int64 `json:"pages_written"`
	AsyncReads     int64 `json:"async_reads"`
	SyncReads      int64 `json:"sync_reads"`
	IntersectOps   int64 `json:"intersect_ops"`
	Intersections  int64 `json:"intersections"`
	Triangles      int64 `json:"triangles"`
	ReusedPages    int64 `json:"reused_pages"`
	Iterations     int64 `json:"iterations"`
	Morphs         int64 `json:"morphs"`
	CoalescedReads int64 `json:"coalesced_reads"`
	CoalescedPages int64 `json:"coalesced_pages"`
	PrefetchHits   int64 `json:"prefetch_hits"`
	PrefetchWasted int64 `json:"prefetch_wasted"`

	SubmittedBatches int64 `json:"submitted_batches"`
	BatchedReads     int64 `json:"batched_reads"`
	RingDepth        int64 `json:"ring_depth"`
	DirectFallbacks  int64 `json:"direct_fallbacks"`

	ShardsDispatched int64 `json:"shards_dispatched"`
	ShardsRetried    int64 `json:"shards_retried"`
	ShardsMerged     int64 `json:"shards_merged"`

	IOWait time.Duration `json:"io_wait_ns"`
}

// Snapshot returns a copy of the current counter values.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		PagesRead:      c.pagesRead.Load(),
		PagesWritten:   c.pagesWritten.Load(),
		AsyncReads:     c.asyncReads.Load(),
		SyncReads:      c.syncReads.Load(),
		IntersectOps:   c.intersectOps.Load(),
		Intersections:  c.intersectCall.Load(),
		Triangles:      c.triangles.Load(),
		ReusedPages:    c.reusedPages.Load(),
		Iterations:     c.iterations.Load(),
		Morphs:         c.morphs.Load(),
		CoalescedReads: c.coalescedReads.Load(),
		CoalescedPages: c.coalescedPages.Load(),
		PrefetchHits:   c.prefetchHits.Load(),
		PrefetchWasted: c.prefetchWasted.Load(),

		SubmittedBatches: c.submittedBatches.Load(),
		BatchedReads:     c.batchedReads.Load(),
		RingDepth:        c.ringDepth.Load(),
		DirectFallbacks:  c.directFallbacks.Load(),

		ShardsDispatched: c.shardsDispatched.Load(),
		ShardsRetried:    c.shardsRetried.Load(),
		ShardsMerged:     c.shardsMerged.Load(),

		IOWait: time.Duration(c.ioWait.Load()),
	}
}

// String formats the snapshot for logs and experiment output.
func (s Snapshot) String() string {
	out := fmt.Sprintf("reads=%d writes=%d async=%d sync=%d ops=%d tri=%d reused=%d coalesced=%d(%dp) prefetch=%d/%dw iowait=%v",
		s.PagesRead, s.PagesWritten, s.AsyncReads, s.SyncReads, s.IntersectOps, s.Triangles, s.ReusedPages,
		s.CoalescedReads, s.CoalescedPages, s.PrefetchHits, s.PrefetchWasted, s.IOWait)
	if s.RingDepth > 0 || s.SubmittedBatches > 0 || s.DirectFallbacks > 0 {
		out += fmt.Sprintf(" ring=%d batches=%d(%dr) directfb=%d",
			s.RingDepth, s.SubmittedBatches, s.BatchedReads, s.DirectFallbacks)
	}
	if s.ShardsDispatched > 0 || s.ShardsMerged > 0 {
		out += fmt.Sprintf(" shards=%d/%dd retried=%d",
			s.ShardsMerged, s.ShardsDispatched, s.ShardsRetried)
	}
	return out
}

// AmdahlBound returns the theoretical speed-up upper bound 1/((1-p)+p/c) for
// parallel fraction p on c cores (Table 5). It returns 1 for c < 1 or p
// outside (0, 1].
func AmdahlBound(p float64, c int) float64 {
	if c < 1 || p <= 0 || p > 1 {
		return 1
	}
	return 1 / ((1 - p) + p/float64(c))
}

// Stopwatch measures one named phase.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
