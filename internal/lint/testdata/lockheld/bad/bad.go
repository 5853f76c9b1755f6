// Package bad holds the blocking-under-mutex shapes lockheld must flag:
// send (on a buffered channel too), receive, range over a channel, select
// without default, WaitGroup.Wait (also joining goroutines that need the
// held lock) and a callback field.
package bad

import "sync"

type worker struct {
	mu   sync.Mutex
	ch   chan int
	done func()
	wg   sync.WaitGroup
}

func (w *worker) send() {
	w.mu.Lock()
	w.ch <- 1 // want "channel send while holding w\\.mu"
	w.mu.Unlock()
}

func (w *worker) recv() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return <-w.ch // want "channel receive while holding w\\.mu"
}

func (w *worker) wait() {
	w.mu.Lock()
	w.wg.Wait() // want "blocking w\\.wg\\.Wait\\(\\) while holding w\\.mu"
	w.mu.Unlock()
}

func (w *worker) callback() {
	w.mu.Lock()
	w.done() // want "callback field w\\.done invoked while holding w\\.mu"
	w.mu.Unlock()
}

func (w *worker) drainAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for v := range w.ch { // want "range over channel while holding w\\.mu"
		_ = v
	}
}

// The same shapes reached through a parameter instead of a receiver.
type hub struct {
	mu sync.Mutex
	ch chan int
}

func sendUnderLock(h *hub) {
	h.mu.Lock()
	h.ch <- 1 // want "blocking channel send while holding h\\.mu"
	h.mu.Unlock()
}

func recvUnderLock(h *hub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return <-h.ch // want "blocking channel receive while holding h\\.mu"
}

func selectUnderLock(h *hub, done chan struct{}) {
	h.mu.Lock()
	select { // want "select without default .* while holding h\\.mu"
	case v := <-h.ch:
		_ = v
	case <-done:
	}
	h.mu.Unlock()
}

func waitUnderLock(h *hub, wg *sync.WaitGroup) {
	h.mu.Lock()
	wg.Wait() // want "blocking wg\\.Wait\\(\\) while holding h\\.mu"
	h.mu.Unlock()
}

func rangeUnderLock(h *hub) (sum int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for v := range h.ch { // want "blocking range over channel while holding h\\.mu"
		sum += v
	}
	return sum
}

func parkUnderLock(h *hub) {
	h.mu.Lock()
	select {} // want "select \\{\\} \\(blocks forever\\) while holding h\\.mu"
}

// Held sets are keyed by receiver: unlocking b's mutex does not release
// a's, though both are the same field of one type.
func crossUnlock(a, b *hub) {
	a.mu.Lock()
	b.mu.Unlock()
	a.ch <- 1 // want "blocking channel send while holding a\\.mu"
	a.mu.Unlock()
}

// once's done channel has capacity 1 and one send in the package, outside
// any loop. A buffered send under a lock is still a send under a lock: it
// parks once the buffer is full, when a second finish follows the first.
type once struct {
	mu   sync.Mutex
	done chan int
}

func newOnce() *once {
	return &once{done: make(chan int, 1)}
}

func (o *once) finish(v int) {
	o.mu.Lock()
	o.done <- v // want "blocking channel send while holding o\\.mu"
	o.mu.Unlock()
}

// Joining goroutines that need the held lock is a wait-for cycle: the
// workers park in Lock, Wait parks forever. The held-lock rule flags the
// Wait whatever the workers do, so both spawn shapes are caught: a
// literal locking through a helper, and a named worker locking directly.
type pool struct {
	mu    sync.Mutex
	items []int
}

func (p *pool) add(v int) {
	p.mu.Lock()
	p.items = append(p.items, v)
	p.mu.Unlock()
}

func flush(p *pool) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.add(1)
		}()
	}
	p.mu.Lock()
	wg.Wait() // want "blocking wg\\.Wait\\(\\) while holding p\\.mu: a blocked goroutine wedges every waiter of the lock"
	p.mu.Unlock()
}

func poolWorker(p *pool, wg *sync.WaitGroup) {
	defer wg.Done()
	p.mu.Lock()
	p.items = append(p.items, 0)
	p.mu.Unlock()
}

func run(p *pool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go poolWorker(p, &wg)
	p.mu.Lock()
	wg.Wait() // want "blocking wg\\.Wait\\(\\) while holding p\\.mu: a blocked goroutine wedges every waiter of the lock"
	p.mu.Unlock()
}
