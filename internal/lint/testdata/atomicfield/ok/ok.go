package ok

import "sync/atomic"

type counter struct {
	n     atomic.Int64
	plain int64 // never touched atomically; plain access everywhere is fine
}

// The typed atomic API needs no rule: non-atomic access is inexpressible.
func (c *counter) Observe() { c.n.Add(1) }

func (c *counter) Snapshot() int64 { return c.n.Load() }

func (c *counter) Bump() {
	c.plain++
}

// Composite-literal keys name the field without accessing shared state.
func Fresh() *counter {
	return &counter{plain: 0}
}

// A local's address is not a field's: nothing else can reach it.
func Local() int64 {
	var n int64
	atomic.AddInt64(&n, 1)
	return n
}
