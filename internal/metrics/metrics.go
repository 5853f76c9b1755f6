// Package metrics collects the cost counters of a run: page reads and
// writes, triangles, iterations, thread morphs, and the I/O scheduler's,
// native backend's and distributed coordinator's counters. A Collector is
// an events.Sink and nothing else: every counter is the sum of the events
// of one kind, so a collector attached anywhere on a run's event stream
// reads what that stream says. All counters are safe for concurrent use.
package metrics

import (
	"sync/atomic"

	"github.com/optlab/opt/internal/events"
)

// Collector accumulates the counters of one run from its events.
type Collector struct {
	pagesRead    atomic.Int64
	pagesWritten atomic.Int64
	triangles    atomic.Int64
	iterations   atomic.Int64 // completed outer-loop iterations
	morphs       atomic.Int64 // thread-morph transitions

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

// Event implements events.Sink: each counter-bearing kind adds its N (or
// one, for the per-occurrence kinds) to its counter; RingDepth keeps the
// deepest ring seen, so a run over several devices reports the deepest.
// Other kinds are ignored.
func (c *Collector) Event(e events.Event) {
	switch e.Kind {
	case events.PagesRead:
		c.pagesRead.Add(e.N)
	case events.PagesWritten:
		c.pagesWritten.Add(e.N)
	case events.TrianglesFound:
		c.triangles.Add(e.N)
	case events.IterationEnd:
		c.iterations.Add(1)
	case events.Morph:
		c.morphs.Add(e.N)
	case events.CoalescedRead:
		c.coalescedReads.Add(1)
		c.coalescedPages.Add(e.N)
	case events.PrefetchHit:
		c.prefetchHits.Add(e.N)
	case events.PrefetchWasted:
		c.prefetchWasted.Add(e.N)
	case events.SubmittedBatch:
		c.submittedBatches.Add(1)
		c.batchedReads.Add(e.N)
	case events.RingDepth:
		for cur := c.ringDepth.Load(); e.N > cur; cur = c.ringDepth.Load() {
			if c.ringDepth.CompareAndSwap(cur, e.N) {
				break
			}
		}
	case events.DirectFallback:
		c.directFallbacks.Add(e.N)
	case events.ShardDispatched:
		c.shardsDispatched.Add(1)
	case events.ShardRetried:
		c.shardsRetried.Add(1)
	case events.ShardMerged:
		c.shardsMerged.Add(1)
	}
}

// PagesRead returns the pages the PagesRead events reported.
func (c *Collector) PagesRead() int64 { return c.pagesRead.Load() }

// PagesWritten returns the pages the PagesWritten events reported.
func (c *Collector) PagesWritten() int64 { return c.pagesWritten.Load() }

// Triangles returns the triangles the TrianglesFound events reported.
func (c *Collector) Triangles() int64 { return c.triangles.Load() }

// Snapshot is an immutable copy of a Collector's counters. The JSON tags
// make it the per-job metrics export of the optd status API; every key is
// fed by an event kind.
type Snapshot struct {
	PagesRead      int64 `json:"pages_read"`
	PagesWritten   int64 `json:"pages_written"`
	Triangles      int64 `json:"triangles"`
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
}

// Snapshot returns a copy of the current counter values.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		PagesRead:      c.pagesRead.Load(),
		PagesWritten:   c.pagesWritten.Load(),
		Triangles:      c.triangles.Load(),
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
	}
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
