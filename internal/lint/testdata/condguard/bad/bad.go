package bad

import "sync"

type queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []int
}

// Wait guarded by `if`: a spurious or stale wakeup proceeds with the
// predicate still false.
func (q *queue) PopIf() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		q.cond.Wait() // want "sync\\.Cond\\.Wait outside a for loop"
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// Signal after Unlock. Safe here, as items only change under q.mu, but
// the rule cannot tell this predicate from one that changes outside the
// lock, where the unlocked notify can fall between a waiter's check and
// its Wait.
func (q *queue) Push(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.cond.Signal() // want "sync\\.Cond\\.Signal without holding a mutex"
}

// Broadcast with no lock anywhere near it.
func (q *queue) WakeAll() {
	q.cond.Broadcast() // want "sync\\.Cond\\.Broadcast without holding a mutex"
}

// Wait with the lock released on one path before it: must-held analysis
// intersects to empty at the merge.
func (q *queue) PopRacy(drop bool) {
	q.mu.Lock()
	if drop {
		q.mu.Unlock()
	}
	for len(q.items) == 0 {
		q.cond.Wait() // want "sync\\.Cond\\.Wait without holding a mutex"
	}
	q.items = q.items[1:]
	q.mu.Unlock()
}
