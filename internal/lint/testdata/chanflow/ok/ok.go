// Package ok holds the discharged shapes chanflow must accept:
// select-with-default, a provably-buffered channel with bounded
// occupancy, lock released before the op, and sync.Cond.Wait.
package ok

import "sync"

type hub struct {
	mu sync.Mutex
	ch chan int
}

// trySend never blocks: the default clause makes the send best-effort.
func trySend(h *hub) {
	h.mu.Lock()
	select {
	case h.ch <- 1:
	default:
	}
	h.mu.Unlock()
}

// sendAfterUnlock blocks, but with the lock already released.
func sendAfterUnlock(h *hub) {
	h.mu.Lock()
	v := 1
	h.mu.Unlock()
	h.ch <- v
}

// once's done channel is provably buffered (every binding is a make with
// constant capacity 1) and the package sends to it exactly once, outside
// any loop — the bounded-occupancy discharge.
type once struct {
	mu   sync.Mutex
	done chan int
}

func newOnce() *once {
	return &once{done: make(chan int, 1)}
}

func (o *once) finish(v int) {
	o.mu.Lock()
	o.done <- v
	o.mu.Unlock()
}

// guarded parks on the condition variable under its mutex: Cond.Wait
// releases the lock while parked, so nothing is wedged.
type guarded struct {
	mu    sync.Mutex
	c     *sync.Cond
	ready bool
}

func (g *guarded) await() {
	g.mu.Lock()
	for !g.ready {
		g.c.Wait()
	}
	g.mu.Unlock()
}

// index ranges over a slice and a map under the lock: only a range over a
// channel parks.
type index struct {
	mu    sync.Mutex
	items []int
	byKey map[string]int
}

func (x *index) total() (sum int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, v := range x.items {
		sum += v
	}
	for _, v := range x.byKey {
		sum += v
	}
	return sum
}

// poll has a path that does not park (the default clause), so calling it
// under the lock is not a call to an always-blocking function.
func poll(c chan int) int {
	select {
	case v := <-c:
		return v
	default:
		return 0
	}
}

func pollUnderLock(h *hub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return poll(h.ch)
}
