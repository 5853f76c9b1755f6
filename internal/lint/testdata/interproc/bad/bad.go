// Package bad blocks under a mutex through a callee in another package:
// only helper.Next's summary shows that the call always blocks.
package bad

import (
	"sync"

	"fixture/interproc/helper"
)

func nextLocked(mu *sync.Mutex, c chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return helper.Next(c) // want "call to fixture/interproc/helper\\.Next, which always blocks \\(blocking channel receive\\) while holding mu"
}
