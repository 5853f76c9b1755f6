// Package helper provides cross-package callees whose summaries the
// interprocedural fixture tests consume: an ownership sink, a pure
// borrow, and a transitively lock-requiring notify.
package helper

import (
	"sync"

	"github.com/optlab/opt/internal/buffer"
)

// Consume takes ownership of c and releases it — callers' poolpair
// obligations discharge through this summary (Released).
func Consume(c *buffer.Chunk) {
	buffer.PutChunk(c)
}

// BorrowChunk only reads through c: its summary proves a pure borrow, so
// passing a chunk here discharges nothing at the caller.
func BorrowChunk(c *buffer.Chunk) int {
	return c.NumPages
}

// Notify signals without locking: the held obligation propagates to every
// caller (RequiresHeld).
func Notify(c *sync.Cond) {
	c.Signal()
}
