package bad

import (
	"sync"

	"github.com/optlab/opt/internal/buffer"
)

// Field access through the chunk is a plain use, not a release: this path
// drops the chunk on the floor.
func FieldUseOnly() int {
	c := buffer.GetChunk() // want "chunk from buffer\\.GetChunk is not handed back"
	c.FirstPage = 7
	return len(c.Recs)
}

// Multi-path leak: the error branch returns without PutChunk.
func BranchLeak(fail bool) int {
	c := buffer.GetChunk() // want "chunk from buffer\\.GetChunk is not handed back"
	c.NumPages = 1
	if fail {
		return -1
	}
	n := c.NumPages
	buffer.PutChunk(c)
	return n
}

var scratch = sync.Pool{New: func() any { return new([]byte) }}

// sync.Pool obeys the same pairing rule.
func PoolLeak(fail bool) {
	b := scratch.Get() // want "value from sync\\.Pool Get is not handed back via Put"
	if fail {
		return
	}
	scratch.Put(b)
}

var words = sync.Pool{New: func() any { return new([]uint32) }}

// The comma-ok assertion form is the same Get: dropping v leaks it.
func CommaOkLeak() int {
	v, ok := words.Get().(*[]uint32) // want "value from sync\\.Pool Get is not handed back via Put"
	if !ok {
		return 0
	}
	return len(*v)
}
