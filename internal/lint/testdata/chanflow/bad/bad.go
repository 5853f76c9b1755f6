// Package bad holds the blocking-under-mutex shapes chanflow must flag:
// send, receive, select without default, WaitGroup.Wait, and a call to
// an in-module function whose summary proves it always blocks.
package bad

import "sync"

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
	wg.Wait() // want "sync\\.WaitGroup\\.Wait while holding h\\.mu"
	h.mu.Unlock()
}

// drainOne blocks on every path — its summary carries Blocks, so calling
// it under the lock is as bad as the receive itself.
func drainOne(h *hub) int {
	return <-h.ch
}

func callBlockingUnderLock(h *hub) int {
	h.mu.Lock()
	v := drainOne(h) // want "call to fixture/chanflow/bad\\.drainOne, which always blocks .* while holding h\\.mu"
	h.mu.Unlock()
	return v
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

// park's only path is an empty select and forever's a range over a
// channel: both are summarised as always blocking, naming the operation.
func park() { select {} }

func forever(c chan int) {
	for range c {
	}
}

func callParkedUnderLock(h *hub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	forever(h.ch) // want "call to fixture/chanflow/bad\\.forever, which always blocks \\(blocking range over channel\\) while holding h\\.mu"
	park()        // want "call to fixture/chanflow/bad\\.park, which always blocks \\(select \\{\\} \\(blocks forever\\)\\) while holding h\\.mu"
}

// Held sets are keyed by receiver: unlocking b's mutex does not release
// a's, though both are the same field of one type.
func crossUnlock(a, b *hub) {
	a.mu.Lock()
	b.mu.Unlock()
	a.ch <- 1 // want "blocking channel send while holding a\\.mu"
	a.mu.Unlock()
}
