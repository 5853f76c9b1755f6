// Package helper provides cross-package callees whose summaries the
// interprocedural fixture tests consume: an ownership sink and a pure
// borrow. Its notify without a lock is condguard's finding at the notify
// itself, whatever the callers hold.
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

// Notify signals without locking. The lock belongs next to the notify,
// so the finding is here even though ok.guardedNotify holds a mutex
// across the call.
func Notify(c *sync.Cond) {
	c.Signal() // want "sync\\.Cond\\.Signal without holding a mutex"
}
