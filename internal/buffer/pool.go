// Package buffer provides the memory-buffer substrate of §3.2: fixed page
// budgets for the internal and external areas, pin/unpin semantics, and the
// page-reuse path that lets the external area of iteration i serve the
// internal-area loads of iteration i+1 (the Δin_io credit of §3.3).
//
// The unit of buffering is a Chunk: an aligned span of pages holding whole
// decoded records — one page for slotted pages shared by small vertices, or
// a multi-page run for an oversized adjacency list.
package buffer

import (
	"fmt"
	"sync"

	"github.com/optlab/opt/internal/storage"
)

// Chunk is a decoded, aligned span of pages. Arena is the shared neighbor
// backing that every Recs[i].Adj sub-slices (see storage.DecodeRangeAppend);
// recycling it alongside Recs keeps warm decodes at zero allocations.
type Chunk struct {
	FirstPage uint32
	NumPages  int
	Recs      []storage.VertexRec
	Arena     []uint32
}

// chunkFree recycles Chunk headers and their Recs/Arena backing arrays. A
// decode only stays allocation-free if the chunk it appends into has been
// through PutChunk before, so the ownership rule is: whoever removes an
// unpinned chunk from circulation recycles it — the Pool on eviction and
// Clear, the framework for the internal-area chunks it took or loaded
// (DESIGN.md §9). The list is process-wide on purpose: concurrent runs
// (optd jobs) share warm chunks.
var chunkFree = sync.Pool{New: func() any { return new(Chunk) }}

// GetChunk returns a recycled (or fresh) Chunk with zeroed fields and
// Recs/Arena slices of length zero retaining any recycled capacity.
func GetChunk() *Chunk {
	c := chunkFree.Get().(*Chunk)
	c.FirstPage = 0
	c.NumPages = 0
	c.Recs = c.Recs[:0]
	c.Arena = c.Arena[:0]
	return c
}

// PutChunk returns a chunk to the free list. The caller must no longer hold
// references to the chunk, its Recs, or its Arena; record contents are
// cleared so the free list does not pin adjacency arrays from previous
// graphs (the Arena holds no pointers, so its capacity is retained as is).
// Built with -tags optpoison, the arena is also overwritten so that a
// reader that kept a slice past this call sees PoisonVertex, not stale or
// recycled neighbours (poison_on.go).
func PutChunk(c *Chunk) {
	if c == nil {
		return
	}
	for i := range c.Recs {
		c.Recs[i] = storage.VertexRec{}
	}
	c.Recs = c.Recs[:0]
	c.Arena = c.Arena[:0]
	poison(c)
	chunkFree.Put(c)
}

type entry struct {
	chunk *Chunk
	pins  int
}

// Pool is a page-budgeted chunk cache with pinning and FIFO eviction of
// unpinned chunks. It is safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	capPages int
	used     int
	chunks   map[uint32]*entry
	fifo     []uint32 // insertion order, candidates for eviction
	overflow int      // pages held beyond capacity because everything was pinned
}

// NewPool returns a Pool with the given capacity in pages. Like the paper's
// internal area, the capacity must admit at least one adjacency list; a
// single chunk larger than the capacity is still admitted, with the excess
// recorded as overflow.
func NewPool(capPages int) *Pool {
	if capPages < 1 {
		capPages = 1
	}
	return &Pool{capPages: capPages, chunks: make(map[uint32]*entry)}
}

// Capacity returns the pool's page budget.
func (p *Pool) Capacity() int { return p.capPages }

// UsedPages returns the pages currently held.
func (p *Pool) UsedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// OverflowPages returns the cumulative number of pages admitted beyond
// capacity because no unpinned chunk could be evicted.
func (p *Pool) OverflowPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.overflow
}

// Insert adds a chunk pinned once, evicting unpinned chunks in FIFO order
// as needed (evicted chunks go to PutChunk: nobody pins them, so nobody
// may still read them). It returns the number of chunks evicted. Inserting
// a chunk whose FirstPage is already present panics: the caller is
// responsible for Lookup-before-load.
func (p *Pool) Insert(c *Chunk) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.chunks[c.FirstPage]; dup {
		panic(fmt.Sprintf("buffer: duplicate insert of chunk %d", c.FirstPage))
	}
	evicted := 0
	for p.used+c.NumPages > p.capPages {
		if !p.evictOneLocked() {
			p.overflow += p.used + c.NumPages - p.capPages
			break
		}
		evicted++
	}
	p.chunks[c.FirstPage] = &entry{chunk: c, pins: 1}
	p.fifo = append(p.fifo, c.FirstPage)
	p.used += c.NumPages
	return evicted
}

// TrimTo evicts unpinned chunks in FIFO order, as Insert does, until the
// pool holds at most max pages or every chunk left is pinned, and returns
// the pages it then holds. Evicted chunks go to PutChunk.
func (p *Pool) TrimTo(max int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.used > max && p.evictOneLocked() {
	}
	return p.used
}

// evictOneLocked removes the oldest unpinned chunk and recycles it. It
// reports whether an eviction happened.
func (p *Pool) evictOneLocked() bool {
	for i, first := range p.fifo {
		e, ok := p.chunks[first]
		if !ok {
			continue // already removed; lazily skip
		}
		if e.pins > 0 {
			continue
		}
		delete(p.chunks, first)
		p.used -= e.chunk.NumPages
		p.fifo = append(p.fifo[:i], p.fifo[i+1:]...)
		PutChunk(e.chunk)
		return true
	}
	return false
}

// Lookup returns the chunk starting at page first and pins it, or nil when
// absent. Callers must Unpin when done.
func (p *Pool) Lookup(first uint32) *Chunk {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.chunks[first]
	if !ok {
		return nil
	}
	e.pins++
	return e.chunk
}

// Contains reports whether the chunk starting at first is resident, without
// pinning it.
func (p *Pool) Contains(first uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.chunks[first]
	return ok
}

// Unpin releases one pin on the chunk starting at first. Unpinning an
// absent or unpinned chunk panics: it indicates a framework bug.
func (p *Pool) Unpin(first uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.chunks[first]
	if !ok {
		panic(fmt.Sprintf("buffer: unpin of absent chunk %d", first))
	}
	if e.pins == 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned chunk %d", first))
	}
	e.pins--
}

// PinCount returns the current pin count of the chunk starting at first,
// or -1 when the chunk is not resident.
func (p *Pool) PinCount(first uint32) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.chunks[first]
	if !ok {
		return -1
	}
	return e.pins
}

// Take removes and returns the chunk starting at first regardless of pins
// (the donation path from the external to the internal area between
// iterations). It returns nil when absent.
func (p *Pool) Take(first uint32) *Chunk {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.chunks[first]
	if !ok {
		return nil
	}
	delete(p.chunks, first)
	p.used -= e.chunk.NumPages
	for i, f := range p.fifo {
		if f == first {
			p.fifo = append(p.fifo[:i], p.fifo[i+1:]...)
			break
		}
	}
	return e.chunk
}

// Clear removes every chunk. Unpinned chunks are recycled; a chunk somebody
// still pins is only dropped, for the garbage collector to reclaim once its
// last reader is done.
func (p *Pool) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for first, e := range p.chunks {
		if e.pins == 0 {
			PutChunk(e.chunk)
		}
		delete(p.chunks, first)
	}
	p.fifo = p.fifo[:0]
	p.used = 0
}

// Resident returns the FirstPage keys of all resident chunks, in no
// particular order.
func (p *Pool) Resident() []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]uint32, 0, len(p.chunks))
	for f := range p.chunks {
		out = append(out, f)
	}
	return out
}
