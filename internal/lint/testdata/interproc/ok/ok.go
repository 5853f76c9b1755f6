// Package ok calls helper's functions the way their summaries allow:
// the blocking one with no lock held, the non-blocking one under a lock.
package ok

import (
	"sync"

	"fixture/interproc/helper"
)

func next(c chan int) int {
	return helper.Next(c)
}

func tryNextLocked(mu *sync.Mutex, c chan int) (int, bool) {
	mu.Lock()
	defer mu.Unlock()
	return helper.TryNext(c)
}

// guardedNotify holds a mutex across the call; condguard still reports
// helper.Notify's own unlocked Signal (see the helper's want line).
func guardedNotify(mu *sync.Mutex, c *sync.Cond) {
	mu.Lock()
	helper.Notify(c)
	mu.Unlock()
}
