package ok

import (
	"sync"

	"github.com/optlab/opt/internal/buffer"
)

type cache struct {
	chunks map[uint32]*buffer.Chunk
}

// Put on every path, including the early-out branch.
func Paired(fail bool) int {
	c := buffer.GetChunk()
	if fail {
		buffer.PutChunk(c)
		return -1
	}
	n := c.NumPages
	buffer.PutChunk(c)
	return n
}

// defer covers every path at once.
func DeferPaired() int {
	c := buffer.GetChunk()
	defer buffer.PutChunk(c)
	return len(c.Recs)
}

// Ownership transfers: returned to the caller.
func Returned() *buffer.Chunk {
	c := buffer.GetChunk()
	c.FirstPage = 3
	return c
}

// Ownership transfers: stored into a structure the caller owns.
func Stored(cc *cache) {
	c := buffer.GetChunk()
	cc.chunks[c.FirstPage] = c
}

// Ownership transfers: handed to another call (Insert pins it).
func Inserted(p *buffer.Pool) {
	c := buffer.GetChunk()
	p.Insert(c)
}

var scratch = sync.Pool{New: func() any { return new([]byte) }}

// sync.Pool paired via defer.
func PoolPaired() {
	b := scratch.Get()
	defer scratch.Put(b)
}

// Panic paths carry no obligation.
func PanicPath(bad bool) {
	c := buffer.GetChunk()
	if bad {
		panic("corrupt state")
	}
	buffer.PutChunk(c)
}

var words = sync.Pool{New: func() any { return new([]uint32) }}

// The comma-ok assertion form, put back on every path.
func CommaOkPaired() int {
	v, ok := words.Get().(*[]uint32)
	if !ok {
		words.Put(v)
		return 0
	}
	n := len(*v)
	words.Put(v)
	return n
}
