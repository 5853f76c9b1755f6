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

func (w *worker) sel() {
	w.mu.Lock()
	defer w.mu.Unlock()
	select { // want "select \\(blocking channel operation\\) while holding w\\.mu"
	case v := <-w.ch:
		_ = v
	default:
	}
}

func (w *worker) drainAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for v := range w.ch { // want "range over channel while holding w\\.mu"
		_ = v
	}
}

// park's only path is an empty select and forever's a range over a
// channel: both are summarised as always blocking, naming the operation.
func park() { select {} }

func forever(c chan int) {
	for range c {
	}
}

func (w *worker) callsBlocking() {
	w.mu.Lock()
	defer w.mu.Unlock()
	forever(w.ch) // want "call to fixture/lockheld/bad\\.forever, which always blocks \\(blocking range over channel\\) while holding w\\.mu"
	park()        // want "call to fixture/lockheld/bad\\.park, which always blocks \\(select \\{\\} \\(blocks forever\\)\\) while holding w\\.mu"
}
