package testcode

import "sync/atomic"

type counter struct {
	n int64
}

func (c *counter) Observe() {
	atomic.AddInt64(&c.n, 1) // want "field n passed by address to sync/atomic"
}
