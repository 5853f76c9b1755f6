package testutil

import (
	"sync"

	"github.com/optlab/opt/internal/events"
)

// TriangleSink is an events.Sink that counts the TrianglesFound events of
// a run and sums their N. Runners emit from worker goroutines, so it
// locks.
type TriangleSink struct {
	mu     sync.Mutex
	events int
	sum    int64
}

// Event implements events.Sink.
func (s *TriangleSink) Event(e events.Event) {
	if e.Kind != events.TrianglesFound {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	s.sum += e.N
}

// Counts returns how many TrianglesFound events arrived and the sum of
// their N.
func (s *TriangleSink) Counts() (events int, sum int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events, s.sum
}
