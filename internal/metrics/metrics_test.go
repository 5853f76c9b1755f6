package metrics

import (
	"math"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/events"
)

// TestCollectorEventSink feeds one or two events of every counter-bearing
// kind and reads every Snapshot field back.
func TestCollectorEventSink(t *testing.T) {
	c := NewCollector()
	for _, e := range []events.Event{
		{Kind: events.PagesRead, N: 3},
		{Kind: events.PagesRead, N: 2},
		{Kind: events.PagesWritten, N: 2},
		{Kind: events.TrianglesFound, N: 5},
		{Kind: events.IterationEnd},
		{Kind: events.IterationEnd},
		{Kind: events.Morph, N: 4},
		{Kind: events.CoalescedRead, N: 4}, // one read covering 4 pages
		{Kind: events.CoalescedRead, N: 2},
		{Kind: events.PrefetchHit, N: 3},
		{Kind: events.PrefetchWasted, N: 1},
		{Kind: events.SubmittedBatch, N: 6},
		{Kind: events.RingDepth, N: 64},
		{Kind: events.RingDepth, N: 32}, // the deepest ring sticks
		{Kind: events.DirectFallback, N: 1},
		{Kind: events.ShardDispatched, N: 9}, // per occurrence, N ignored
		{Kind: events.ShardDispatched},
		{Kind: events.ShardRetried},
		{Kind: events.ShardMerged},
		{Kind: events.RunStart}, // boundary kinds are ignored
		{Kind: events.TaskDone, N: 7},
	} {
		c.Event(e)
	}
	want := Snapshot{
		PagesRead: 5, PagesWritten: 2, Triangles: 5, Iterations: 2, Morphs: 4,
		CoalescedReads: 2, CoalescedPages: 6, PrefetchHits: 3, PrefetchWasted: 1,
		SubmittedBatches: 1, BatchedReads: 6, RingDepth: 64, DirectFallbacks: 1,
		ShardsDispatched: 2, ShardsRetried: 1, ShardsMerged: 1,
	}
	if got := c.Snapshot(); got != want {
		t.Fatalf("snapshot\n got %+v\nwant %+v", got, want)
	}
	if c.PagesRead() != 5 || c.PagesWritten() != 2 || c.Triangles() != 5 {
		t.Fatalf("accessors: read %d written %d triangles %d", c.PagesRead(), c.PagesWritten(), c.Triangles())
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Event(events.Event{Kind: events.PagesRead, N: 1})
				c.Event(events.Event{Kind: events.TrianglesFound, N: 2})
				c.Event(events.Event{Kind: events.RingDepth, N: int64(j)})
			}
		}()
	}
	wg.Wait()
	if s := c.Snapshot(); s.PagesRead != 8000 || s.Triangles != 16000 || s.RingDepth != 999 {
		t.Errorf("snapshot = %+v, want 8000 pages, 16000 triangles, ring depth 999", s)
	}
}

func TestAmdahlBound(t *testing.T) {
	cases := []struct {
		p    float64
		c    int
		want float64
	}{
		{1.0, 6, 6},
		{0.5, 2, 1 / (0.5 + 0.25)},
		{0.961, 6, 1 / ((1 - 0.961) + 0.961/6)}, // Table 5 LJ row: ~5.03
		{0, 6, 1},
		{-1, 6, 1},
		{1.5, 6, 1},
		{0.9, 0, 1},
	}
	for _, tc := range cases {
		if got := AmdahlBound(tc.p, tc.c); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("AmdahlBound(%v, %d) = %v, want %v", tc.p, tc.c, got, tc.want)
		}
	}
	// Paper Table 5 sanity: p=0.961 on 6 cores bounds speed-up near 5.03.
	if got := AmdahlBound(0.961, 6); math.Abs(got-5.03) > 0.02 {
		t.Errorf("Table 5 LJ bound = %v, want ≈5.03", got)
	}
}
