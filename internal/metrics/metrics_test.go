package metrics

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/optlab/opt/internal/events"
)

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	c.AddPagesRead(3)
	c.AddPagesRead(2)
	c.AddPagesWritten(1)
	c.AddAsyncReads(4)
	c.AddSyncReads(5)
	c.AddIntersect(7)
	c.AddIntersections(1, 3) // a task's flushed tally counts like its calls would
	c.AddTriangles(11)
	c.AddReusedPages(2)
	c.AddIOWait(50 * time.Millisecond)

	if got := c.PagesRead(); got != 5 {
		t.Errorf("PagesRead = %d, want 5", got)
	}
	if got := c.PagesWritten(); got != 1 {
		t.Errorf("PagesWritten = %d, want 1", got)
	}
	if got := c.AsyncReads(); got != 4 {
		t.Errorf("AsyncReads = %d, want 4", got)
	}
	if got := c.SyncReads(); got != 5 {
		t.Errorf("SyncReads = %d, want 5", got)
	}
	if got := c.IntersectOps(); got != 10 {
		t.Errorf("IntersectOps = %d, want 10", got)
	}
	if got := c.Intersections(); got != 2 {
		t.Errorf("Intersections = %d, want 2", got)
	}
	if got := c.Triangles(); got != 11 {
		t.Errorf("Triangles = %d, want 11", got)
	}
	if got := c.ReusedPages(); got != 2 {
		t.Errorf("ReusedPages = %d, want 2", got)
	}
	if got := c.IOWait(); got != 50*time.Millisecond {
		t.Errorf("IOWait = %v, want 50ms", got)
	}
}

func TestCollectorSchedulerCounters(t *testing.T) {
	c := NewCollector()
	c.AddCoalescedRead(4) // one read covering 4 pages
	c.AddCoalescedRead(2)
	c.AddPrefetchHits(3)
	c.AddPrefetchWasted(1)
	if got := c.CoalescedReads(); got != 2 {
		t.Errorf("CoalescedReads = %d, want 2", got)
	}
	if got := c.CoalescedPages(); got != 6 {
		t.Errorf("CoalescedPages = %d, want 6", got)
	}
	if got := c.PrefetchHits(); got != 3 {
		t.Errorf("PrefetchHits = %d, want 3", got)
	}
	if got := c.PrefetchWasted(); got != 1 {
		t.Errorf("PrefetchWasted = %d, want 1", got)
	}

	// The same counters accumulate through the event-sink path.
	c.Event(events.Event{Kind: events.CoalescedRead, N: 8})
	c.Event(events.Event{Kind: events.PrefetchHit, N: 2})
	c.Event(events.Event{Kind: events.PrefetchWasted, N: 1})
	s := c.Snapshot()
	if s.CoalescedReads != 3 || s.CoalescedPages != 14 || s.PrefetchHits != 5 || s.PrefetchWasted != 2 {
		t.Fatalf("snapshot after events: %+v", s)
	}

	c.Reset()
	s = c.Snapshot()
	if s.CoalescedReads != 0 || s.CoalescedPages != 0 || s.PrefetchHits != 0 || s.PrefetchWasted != 0 {
		t.Fatalf("Reset left scheduler counters: %+v", s)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.AddPagesRead(9)
	c.AddTriangles(9)
	c.Reset()
	s := c.Snapshot()
	if s.PagesRead != 0 || s.Triangles != 0 {
		t.Fatalf("after Reset: %+v", s)
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
				c.AddPagesRead(1)
				c.AddIntersect(2)
				c.AddTriangles(1)
			}
		}()
	}
	wg.Wait()
	if got := c.PagesRead(); got != 8000 {
		t.Errorf("PagesRead = %d, want 8000", got)
	}
	if got := c.IntersectOps(); got != 16000 {
		t.Errorf("IntersectOps = %d, want 16000", got)
	}
	if got := c.Triangles(); got != 8000 {
		t.Errorf("Triangles = %d, want 8000", got)
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

func TestSnapshotString(t *testing.T) {
	c := NewCollector()
	c.AddPagesRead(1)
	if s := c.Snapshot().String(); s == "" {
		t.Fatal("Snapshot.String is empty")
	}
}

func TestCollectorEventSink(t *testing.T) {
	c := NewCollector()
	c.Event(events.Event{Kind: events.PagesRead, N: 3})
	c.Event(events.Event{Kind: events.PagesWritten, N: 2})
	c.Event(events.Event{Kind: events.TrianglesFound, N: 5})
	c.Event(events.Event{Kind: events.IterationEnd})
	c.Event(events.Event{Kind: events.IterationEnd})
	c.Event(events.Event{Kind: events.Morph, N: 4})
	c.Event(events.Event{Kind: events.RunStart}) // boundary kinds are ignored

	if got := c.PagesRead(); got != 3 {
		t.Errorf("PagesRead = %d, want 3", got)
	}
	if got := c.PagesWritten(); got != 2 {
		t.Errorf("PagesWritten = %d, want 2", got)
	}
	if got := c.Triangles(); got != 5 {
		t.Errorf("Triangles = %d, want 5", got)
	}
	if got := c.Iterations(); got != 2 {
		t.Errorf("Iterations = %d, want 2", got)
	}
	if got := c.Morphs(); got != 4 {
		t.Errorf("Morphs = %d, want 4", got)
	}
	s := c.Snapshot()
	if s.Iterations != 2 || s.Morphs != 4 {
		t.Errorf("Snapshot iterations/morphs = %d/%d, want 2/4", s.Iterations, s.Morphs)
	}
	c.Reset()
	if c.Iterations() != 0 || c.Morphs() != 0 {
		t.Error("Reset did not clear event-sourced counters")
	}
}

func TestStopwatch(t *testing.T) {
	sw := StartStopwatch()
	time.Sleep(5 * time.Millisecond)
	if got := sw.Elapsed(); got < 5*time.Millisecond {
		t.Fatalf("Elapsed = %v, want >= 5ms", got)
	}
}
