package testcode

import "sync/atomic"

// The same call in a _test.go file is exempt: test code may poke a
// product field's address without a finding.
func observeTwice(c *counter) int64 {
	atomic.AddInt64(&c.n, 1)
	return atomic.LoadInt64(&c.n)
}
