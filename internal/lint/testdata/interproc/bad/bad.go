// Package bad violates the interprocedural contracts helper's summaries
// describe: a borrow mistaken for a hand-off and a transitively missing
// lock.
package bad

import (
	"sync"

	"fixture/interproc/helper"
	"github.com/optlab/opt/internal/buffer"
)

// borrowLeak never releases its chunk: per-function v2 treated any
// mention as a hand-off, but BorrowChunk's summary proves a pure borrow.
func borrowLeak() int {
	c := buffer.GetChunk() // want "chunk from buffer\\.GetChunk is not handed back via buffer\\.PutChunk"
	return helper.BorrowChunk(c)
}

// relay forwards the notify without a lock: its own summary inherits the
// requires-held obligation, and nothing is reported here.
func relay(c *sync.Cond) {
	helper.Notify(c)
}

// Trigger is the module root where the transitively missing lock is
// finally reported, naming the whole chain.
func Trigger(c *sync.Cond) {
	relay(c) // want "call to fixture/interproc/bad\\.relay, which needs the caller to hold a mutex \\(call to fixture/interproc/helper\\.Notify, which needs the caller to hold a mutex \\(sync\\.Cond\\.Signal\\)\\); acquire the mutex before the call"
}
