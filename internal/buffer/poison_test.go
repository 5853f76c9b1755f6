//go:build optpoison

package buffer

import (
	"testing"

	"github.com/optlab/opt/internal/storage"
)

// The use-after-recycle shapes, one per way a caller can keep a pooled
// chunk's memory past PutChunk. Each returns what the kept reference reads
// once the chunk is back in the pool.

var sink []uint32

// decoded returns a chunk as a decode leaves it: a page span and one record
// whose Adj sub-slices the arena.
func decoded() *Chunk {
	c := GetChunk()
	c.FirstPage, c.NumPages = 5, 1
	c.Arena = append(c.Arena, 7, 8, 9)
	c.Recs = append(c.Recs, storage.VertexRec{ID: 6, Adj: c.Arena[:3]})
	return c
}

// header is what a caller that kept the chunk itself reads: its page span
// and the ids of every record header still reachable through Recs.
func header(c *Chunk) []uint32 {
	out := []uint32{c.FirstPage, uint32(c.NumPages)}
	for _, r := range c.Recs[:cap(c.Recs)] {
		out = append(out, r.ID)
	}
	return out
}

// keepAlias stands in for a callee that retains its argument in package
// state.
func keepAlias(xs []uint32) { sink = xs }

var poisonShapes = []struct {
	name string
	kept func() []uint32
}{
	{"returnAfterPut", func() []uint32 {
		c := decoded()
		adj := c.Recs[0].Adj
		PutChunk(c)
		return adj
	}},
	{"useChunkAfterPut", func() []uint32 {
		c := decoded()
		PutChunk(c)
		return header(c)
	}},
	{"storeThenPut", func() []uint32 {
		c := decoded()
		sink = c.Arena
		PutChunk(c)
		return sink
	}},
	// The unordered form — the goroutine reads c.Arena while PutChunk
	// writes it — is a data race, which the -race run of this suite
	// reports; ordered after the recycle, the capture reads the poison.
	{"goroutineCapture", func() []uint32 {
		c := decoded()
		recycled, got := make(chan struct{}), make(chan []uint32)
		go func() {
			<-recycled
			got <- c.Arena[:cap(c.Arena)]
		}()
		PutChunk(c)
		close(recycled)
		return <-got
	}},
	{"deferredPutReturn", func() []uint32 {
		return func() []uint32 {
			c := decoded()
			defer PutChunk(c)
			return c.Recs[0].Adj
		}()
	}},
	{"returnChunkDeferredPut", func() []uint32 {
		c := func() *Chunk {
			c := decoded()
			defer PutChunk(c)
			return c
		}()
		return header(c)
	}},
	{"escapeViaHelper", func() []uint32 {
		c := decoded()
		keepAlias(c.Arena)
		PutChunk(c)
		return sink
	}},
}

// TestPutChunkPoisonsRetainedSlices is the use-after-recycle guard at work:
// whatever a shape kept past PutChunk — an Adj slice, an arena alias, the
// chunk header — reads the sentinel, not the neighbours it held or, worse,
// the next decode's.
func TestPutChunkPoisonsRetainedSlices(t *testing.T) {
	for _, tc := range poisonShapes {
		t.Run(tc.name, func(t *testing.T) {
			kept := tc.kept()
			if len(kept) == 0 {
				t.Fatal("the shape kept nothing to observe")
			}
			for i, v := range kept {
				if v != PoisonVertex {
					t.Fatalf("kept[%d] = %d after PutChunk, want the sentinel %d", i, v, PoisonVertex)
				}
			}
		})
	}
}
