// Package ok satisfies the interprocedural contracts: every obligation
// helper's summaries impose is met, so nothing may be reported.
package ok

import (
	"sync"

	"fixture/interproc/helper"
	"github.com/optlab/opt/internal/buffer"
)

// handOff discharges its pool obligation through helper.Consume's
// Released summary — a cross-package ownership transfer.
func handOff() {
	c := buffer.GetChunk()
	helper.Consume(c)
}

// borrowThenRelease borrows via the helper and still releases itself.
func borrowThenRelease() int {
	c := buffer.GetChunk()
	n := helper.BorrowChunk(c)
	buffer.PutChunk(c)
	return n
}

// guardedNotify holds a mutex across the call; condguard still reports
// helper.Notify's own unlocked Signal (see the helper's want line).
func guardedNotify(mu *sync.Mutex, c *sync.Cond) {
	mu.Lock()
	helper.Notify(c)
	mu.Unlock()
}
