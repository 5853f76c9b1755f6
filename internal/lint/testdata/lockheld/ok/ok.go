// Package ok holds the shapes lockheld must accept: a select with a
// default clause, the lock released before the operation, sync.Cond.Wait,
// a goroutine spawned under the lock, and ranges over slices and maps.
package ok

import "sync"

type worker struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
	ch    chan int
	done  func()
}

// condWait parks on a sync.Cond, which releases the mutex while waiting:
// the one blocking call that is legal under a lock.
func (w *worker) condWait() {
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// trySend and tryRecv never block: the default clause makes the channel
// operation best-effort, the SSE hub's shape.
func (w *worker) trySend() {
	w.mu.Lock()
	select {
	case w.ch <- 1:
	default:
	}
	w.mu.Unlock()
}

func (w *worker) tryRecv() {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case v := <-w.ch:
		_ = v
	default:
	}
}

// unlockFirst releases before blocking.
func (w *worker) unlockFirst() {
	w.mu.Lock()
	w.ready = true
	w.mu.Unlock()
	w.ch <- 1
	w.done()
}

// guard unlocks on every path before the send: the branch merge must see
// the lock released on the fast path.
func (w *worker) guard(fast bool) {
	w.mu.Lock()
	if fast {
		w.mu.Unlock()
		w.ch <- 1
		return
	}
	w.mu.Unlock()
}

// spawn sends from a new goroutine that does not inherit this one's lock.
func (w *worker) spawn() {
	w.mu.Lock()
	go func() { w.ch <- 1 }()
	w.mu.Unlock()
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
