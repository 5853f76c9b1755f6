//go:build optpoison

package buffer

import "sync/atomic"

// PoisonVertex is what every neighbour slot of a recycled chunk reads as
// under -tags optpoison. No store holds that many vertices, so a reader
// that kept an Adj slice (or a Recs header) past PutChunk fails loudly — an
// out-of-range index or a wrong triangle count in the differential sweep —
// instead of silently reading the next decode's neighbours. The page span
// is stamped too (FirstPage reads PoisonVertex, NumPages -1), so a caller
// that kept the chunk itself reads no plausible page; GetChunk zeroes both.
const PoisonVertex = ^uint32(0)

func poison(c *Chunk) {
	c.FirstPage = PoisonVertex
	c.NumPages = -1
	a := c.Arena[:cap(c.Arena)]
	for i := range a {
		a[i] = PoisonVertex
	}
	c.Recs = nil
}

// live counts the chunks GetChunk handed out that PutChunk has not taken
// back yet.
var live atomic.Int64

func trackLive(delta int64) { live.Add(delta) }

// LiveChunks returns how many chunks are out of the free list right now.
// A test binary whose runs have all ended reads 0 unless some path dropped
// a chunk instead of recycling it; internal/core and internal/difftest
// check it after their last test.
func LiveChunks() int64 { return live.Load() }
