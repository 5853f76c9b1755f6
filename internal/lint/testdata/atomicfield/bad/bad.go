package bad

import "sync/atomic"

type counter struct {
	hits int64
	errs int64
}

// Every sync/atomic call on a field's address is a finding, whatever the
// rest of the package does with the field: Snapshot and Reset touch hits
// plainly, and that mixed access races with Observe.
func (c *counter) Observe() {
	atomic.AddInt64(&c.hits, 1) // want "field hits passed by address to sync/atomic"
}

func (c *counter) Snapshot() int64 {
	return c.hits
}

func (c *counter) Reset() {
	c.hits = 0
}

// errs is only ever touched atomically in one branch and plainly in the
// other — the mixed pair races with itself.
func (c *counter) Record(fatal bool) {
	if fatal {
		atomic.AddInt64(&c.errs, 1) // want "field errs passed by address to sync/atomic"
		return
	}
	c.errs++
}

// An all-atomic field is still one plain access away from a race.
type gauge struct {
	n int64
}

func (g *gauge) Observe() {
	atomic.AddInt64(&g.n, 1) // want "field n passed by address to sync/atomic"
}

func (g *gauge) Load() int64 {
	return atomic.LoadInt64(&g.n) // want "field n passed by address to sync/atomic"
}

func (g *gauge) Swap() int64 {
	return atomic.SwapInt64((&g.n), 0) // want "field n passed by address to sync/atomic"
}
