// Package bad violates the interprocedural contract helper's summaries
// describe: a borrow mistaken for a hand-off.
package bad

import (
	"fixture/interproc/helper"
	"github.com/optlab/opt/internal/buffer"
)

// borrowLeak never releases its chunk: per-function v2 treated any
// mention as a hand-off, but BorrowChunk's summary proves a pure borrow.
func borrowLeak() int {
	c := buffer.GetChunk() // want "chunk from buffer\\.GetChunk is not handed back via buffer\\.PutChunk"
	return helper.BorrowChunk(c)
}
