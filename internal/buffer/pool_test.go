package buffer

import (
	"sync"
	"testing"

	"github.com/optlab/opt/internal/storage"
)

func chunk(first uint32, pages int) *Chunk {
	return &Chunk{FirstPage: first, NumPages: pages}
}

func TestPoolInsertLookup(t *testing.T) {
	p := NewPool(4)
	p.Insert(chunk(0, 1))
	p.Insert(chunk(1, 2))
	if p.UsedPages() != 3 {
		t.Fatalf("UsedPages = %d, want 3", p.UsedPages())
	}
	c := p.Lookup(1)
	if c == nil || c.NumPages != 2 {
		t.Fatalf("Lookup(1) = %v", c)
	}
	if p.Lookup(9) != nil {
		t.Fatal("Lookup(9) should be nil")
	}
	if !p.Contains(0) || p.Contains(9) {
		t.Fatal("Contains wrong")
	}
}

func TestPoolEvictionFIFO(t *testing.T) {
	p := NewPool(3)
	p.Insert(chunk(0, 1))
	p.Insert(chunk(1, 1))
	p.Insert(chunk(2, 1))
	// All inserted pinned once; unpin 0 and 1 so they are evictable.
	p.Unpin(0)
	p.Unpin(1)
	evicted := p.Insert(chunk(3, 2)) // needs 2 pages -> evicts 0 then 1
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	if p.Contains(0) || p.Contains(1) {
		t.Fatal("FIFO eviction order violated")
	}
	if !p.Contains(2) || !p.Contains(3) {
		t.Fatal("wrong survivors")
	}
	if p.UsedPages() != 3 {
		t.Fatalf("UsedPages = %d, want 3", p.UsedPages())
	}
}

func TestPoolPinPreventsEviction(t *testing.T) {
	p := NewPool(2)
	p.Insert(chunk(0, 1)) // pinned
	p.Insert(chunk(1, 1)) // pinned
	// Everything pinned: insert overflows.
	p.Insert(chunk(2, 1))
	if !p.Contains(0) || !p.Contains(1) || !p.Contains(2) {
		t.Fatal("pinned chunk was evicted")
	}
	if p.OverflowPages() != 1 {
		t.Fatalf("OverflowPages = %d, want 1", p.OverflowPages())
	}
}

func TestPoolUnpinThenEvictable(t *testing.T) {
	p := NewPool(1)
	p.Insert(chunk(0, 1))
	c := p.Lookup(0) // second pin
	if c == nil {
		t.Fatal("Lookup failed")
	}
	p.Unpin(0)
	p.Unpin(0) // now unpinned
	p.Insert(chunk(1, 1))
	if p.Contains(0) {
		t.Fatal("chunk 0 should have been evicted")
	}
}

func TestPoolUnpinPanics(t *testing.T) {
	p := NewPool(2)
	p.Insert(chunk(0, 1))
	p.Unpin(0)
	assertPanics(t, func() { p.Unpin(0) }, "double unpin")
	assertPanics(t, func() { p.Unpin(7) }, "unpin absent")
	assertPanics(t, func() { p.Insert(chunk(0, 1)) }, "duplicate insert")
}

func assertPanics(t *testing.T, fn func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestPoolTake(t *testing.T) {
	p := NewPool(4)
	p.Insert(chunk(0, 2))
	p.Insert(chunk(2, 1))
	c := p.Take(0) // still pinned; Take succeeds regardless
	if c == nil || c.NumPages != 2 {
		t.Fatalf("Take = %v", c)
	}
	if p.Contains(0) {
		t.Fatal("Take left chunk resident")
	}
	if p.UsedPages() != 1 {
		t.Fatalf("UsedPages = %d, want 1", p.UsedPages())
	}
	if p.Take(0) != nil {
		t.Fatal("second Take should be nil")
	}
}

func TestPoolClearAndResident(t *testing.T) {
	p := NewPool(4)
	p.Insert(chunk(0, 1))
	p.Insert(chunk(5, 1))
	res := p.Resident()
	if len(res) != 2 {
		t.Fatalf("Resident = %v", res)
	}
	p.Clear()
	if p.UsedPages() != 0 || len(p.Resident()) != 0 {
		t.Fatal("Clear did not empty pool")
	}
}

func TestPoolOversizedChunkAdmitted(t *testing.T) {
	p := NewPool(2)
	p.Insert(chunk(0, 5)) // bigger than capacity
	if !p.Contains(0) {
		t.Fatal("oversized chunk rejected")
	}
	if p.OverflowPages() != 3 {
		t.Fatalf("OverflowPages = %d, want 3", p.OverflowPages())
	}
}

func TestPoolMinimumCapacity(t *testing.T) {
	p := NewPool(0)
	if p.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want 1", p.Capacity())
	}
}

// TestPoolEvictionPressure hammers a small pool from many goroutines with
// Insert/Lookup/Unpin/Take so evictions race against pinning. Each worker
// owns a disjoint key range, so the pin counts of its own chunks are
// deterministic and can be checked exactly even while the other workers
// force evictions.
func TestPoolEvictionPressure(t *testing.T) {
	const (
		workers  = 8
		rounds   = 200
		capacity = 16 // far below workers*rounds pages: constant pressure
	)
	p := NewPool(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				first := uint32(w*rounds + i)
				p.Insert(chunk(first, 1))
				if got := p.PinCount(first); got != 1 {
					t.Errorf("after Insert(%d): pins = %d, want 1", first, got)
					return
				}
				if c := p.Lookup(first); c == nil {
					t.Errorf("Lookup(%d) = nil while pinned", first)
					return
				}
				if got := p.PinCount(first); got != 2 {
					t.Errorf("after Lookup(%d): pins = %d, want 2", first, got)
					return
				}
				p.Unpin(first)
				if got := p.PinCount(first); got != 1 {
					t.Errorf("after Unpin(%d): pins = %d, want 1", first, got)
					return
				}
				// A pinned chunk can never be evicted, however hard the
				// other workers push.
				if !p.Contains(first) {
					t.Errorf("pinned chunk %d evicted", first)
					return
				}
				switch i % 3 {
				case 0:
					// Release: the chunk becomes eviction fodder.
					p.Unpin(first)
				case 1:
					// Donate: Take removes it regardless of the pin.
					if c := p.Take(first); c == nil || c.FirstPage != first {
						t.Errorf("Take(%d) while pinned = %v", first, c)
						return
					}
				case 2:
					// Release, then reclaim it if it survived the others.
					p.Unpin(first)
					if c := p.Take(first); c != nil && c.FirstPage != first {
						t.Errorf("Take(%d) returned chunk %d", first, c.FirstPage)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Every surviving chunk was left unpinned, so the budget must hold and
	// no pins may leak.
	if p.UsedPages() > capacity {
		t.Fatalf("UsedPages = %d exceeds capacity %d with all pins released", p.UsedPages(), capacity)
	}
	for _, first := range p.Resident() {
		if got := p.PinCount(first); got != 0 {
			t.Fatalf("chunk %d left with %d pins", first, got)
		}
	}
	if p.PinCount(uint32(workers*rounds)) != -1 {
		t.Fatal("PinCount of absent chunk should be -1")
	}
}

// TestChunkRecycle checks the GetChunk/PutChunk free list: recycled chunks
// come back zeroed and must not retain adjacency arrays from their previous
// life.
func TestChunkRecycle(t *testing.T) {
	c := GetChunk()
	if c.FirstPage != 0 || c.NumPages != 0 || len(c.Recs) != 0 {
		t.Fatalf("fresh chunk not zeroed: %+v", c)
	}
	c.FirstPage = 7
	c.NumPages = 2
	c.Recs = append(c.Recs, storage.VertexRec{ID: 1, Adj: []uint32{2, 3}})
	PutChunk(c)
	PutChunk(nil) // must be a no-op

	d := GetChunk()
	if d.FirstPage != 0 || d.NumPages != 0 || len(d.Recs) != 0 {
		t.Fatalf("recycled chunk not reset: %+v", d)
	}
	if cap(d.Recs) > 0 {
		if r := d.Recs[:1][0]; r.Adj != nil || r.ID != 0 {
			t.Fatalf("recycled record retains data: %+v", r)
		}
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint32(w * 100)
			for i := uint32(0); i < 50; i++ {
				p.Insert(chunk(base+i, 1))
				if c := p.Lookup(base + i); c != nil {
					p.Unpin(base + i)
				}
				p.Unpin(base + i) // release insert pin
			}
		}()
	}
	wg.Wait()
	if p.UsedPages() > 64 {
		t.Fatalf("UsedPages = %d exceeds capacity with everything unpinned", p.UsedPages())
	}
}

// filled returns a pooled chunk holding one record, as a decode leaves it.
func filled(first uint32) *Chunk {
	c := GetChunk()
	c.FirstPage, c.NumPages = first, 1
	c.Arena = append(c.Arena, first+1, first+2)
	c.Recs = append(c.Recs, storage.VertexRec{ID: first, Adj: c.Arena[:2]})
	return c
}

// recycled reports whether c went through PutChunk, which resets the chunk
// it is handed before parking it (observing the free list itself would
// depend on sync.Pool identity, which the runtime does not guarantee).
func recycled(c *Chunk) bool { return len(c.Recs) == 0 && len(c.Arena) == 0 }

// TestPoolTrimTo checks TrimTo: it evicts unpinned chunks oldest first,
// stops as soon as the pool fits, never evicts a pinned chunk however far
// the pool is over, and returns the pages held.
func TestPoolTrimTo(t *testing.T) {
	p := NewPool(8)
	for first := uint32(0); first < 5; first++ {
		p.Insert(chunk(first, 1))
	}
	p.Unpin(3)
	p.Unpin(1)
	p.Unpin(4)
	// 0 and 2 stay pinned. Oldest first: 1, then 3; 4 survives.
	if used := p.TrimTo(3); used != 3 {
		t.Fatalf("TrimTo(3) = %d, want 3", used)
	}
	if p.Contains(1) || p.Contains(3) || !p.Contains(4) {
		t.Fatalf("TrimTo(3) left %v resident, want 0, 2 and 4", p.Resident())
	}
	if used := p.TrimTo(5); used != 3 {
		t.Fatalf("TrimTo above the pages held evicted: used = %d, want 3", used)
	}
	if used := p.TrimTo(-1); used != 2 {
		t.Fatalf("TrimTo(-1) = %d, want the 2 pinned pages", used)
	}
	if !p.Contains(0) || !p.Contains(2) || p.UsedPages() != 2 {
		t.Fatalf("TrimTo evicted a pinned chunk: %v resident", p.Resident())
	}
}

// TestPoolTrimToAllocatesNothing checks that a warm trim, one that evicts,
// allocates nothing: admission calls it under the I/O scheduler's lock for
// every read it would otherwise refuse.
func TestPoolTrimToAllocatesNothing(t *testing.T) {
	const runs = 20
	pools := make([]*Pool, runs+1) // AllocsPerRun runs once more to warm up
	for i := range pools {
		pools[i] = NewPool(4)
		for first := uint32(0); first < 4; first++ {
			pools[i].Insert(filled(first))
			pools[i].Unpin(first)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pools[i].TrimTo(1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("a warm TrimTo allocates %v times, want 0", allocs)
	}
}

// TestPoolInsertAllocatesNothing checks that admitting a chunk into a warm
// pool allocates nothing: the pool keeps its entries by value, and the
// external pass inserts every chunk it decodes. The keys rotate through
// fresh pages, as a run's do, with 64 chunks resident; each chunk leaves
// through Take, so no chunk is recycled and only the pool's own
// bookkeeping is counted.
func TestPoolInsertAllocatesNothing(t *testing.T) {
	const resident = 64
	p := NewPool(resident + 1)
	chunks := make([]*Chunk, resident+1)
	for i := range chunks {
		chunks[i] = &Chunk{NumPages: 1}
	}
	next := uint32(0)
	cycle := func() {
		c := chunks[next%uint32(len(chunks))]
		c.FirstPage = next
		p.Insert(c)
		p.Unpin(next)
		if next >= resident {
			p.Take(next - resident)
		}
		next++
	}
	for range 100 * resident {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10*resident, cycle); allocs != 0 {
		t.Fatalf("a warm Insert allocates %v times, want 0", allocs)
	}
}

// TestPoolRecyclesWhatItDrops pins the chunk-ownership rule: a chunk the
// pool lets go of while nobody pins it — evicted by Insert or TrimTo, or
// removed by Clear — is handed to PutChunk, a pinned chunk never is, and a
// chunk that left through Take belongs to the taker.
func TestPoolRecyclesWhatItDrops(t *testing.T) {
	p := NewPool(2)
	victim, pinned := filled(0), filled(1)
	p.Insert(victim)
	p.Insert(pinned)
	p.Unpin(0)
	if got := p.Insert(filled(2)); got != 1 {
		t.Fatalf("Insert evicted %d chunks, want 1", got)
	}
	if !recycled(victim) {
		t.Error("evicted chunk was not recycled")
	}
	if recycled(pinned) {
		t.Error("pinned chunk was recycled by an eviction pass")
	}
	trimmed := filled(5)
	p.Insert(trimmed)
	p.Unpin(5)
	if used := p.TrimTo(2); used != 2 || !recycled(trimmed) {
		t.Errorf("TrimTo(2) = %d, recycled %v: want 2 pages and the trimmed chunk recycled", used, recycled(trimmed))
	}
	if recycled(pinned) {
		t.Error("pinned chunk was recycled by TrimTo")
	}

	p.Unpin(2)
	idle := p.Lookup(2)
	p.Unpin(2)
	taken := p.Take(1)
	p.Insert(filled(3)) // stays pinned
	held := p.Lookup(3)
	p.Clear()
	if !recycled(idle) {
		t.Error("Clear did not recycle an unpinned chunk")
	}
	if recycled(held) {
		t.Error("Clear recycled a pinned chunk")
	}
	if recycled(taken) {
		t.Error("a taken chunk was recycled by the pool it left")
	}
	if p.UsedPages() != 0 || len(p.Resident()) != 0 {
		t.Error("Clear did not empty the pool")
	}
}
