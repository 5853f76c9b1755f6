package cluster

import (
	"sort"

	"github.com/optlab/opt/internal/lockdep"
)

// Ledger is the exactly-once merge accounting of a distributed job. Every
// attempt result — first success, failure-retry success, and the late
// result of a straggler whose speculative replacement already finished —
// flows through Merge; only the first result per task id contributes to
// the total, so retries and first-result-wins races can never double
// count. The Duplicates counter is the observable proof: a chaos run that
// provokes a duplicate delivery must raise it while leaving Total exact.
type Ledger struct {
	mu         lockdep.Mutex[Ledger]
	pending    map[TaskID]struct{}
	results    map[TaskID]TaskResultMessage
	total      int64
	duplicates int
	unknown    int
}

// NewLedger opens a ledger expecting exactly one result for each id.
func NewLedger(ids []TaskID) *Ledger {
	l := &Ledger{
		pending: make(map[TaskID]struct{}, len(ids)),
		results: make(map[TaskID]TaskResultMessage, len(ids)),
	}
	for _, id := range ids {
		l.pending[id] = struct{}{}
	}
	return l
}

// Merge records one attempt result. It returns true when the result is
// the first for its task (the count is folded into the total); a repeat
// delivery bumps Duplicates and an id the ledger never expected bumps
// Unknown, both returning false.
func (l *Ledger) Merge(r TaskResultMessage) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, open := l.pending[r.ID]; !open {
		if _, seen := l.results[r.ID]; seen {
			l.duplicates++
		} else {
			l.unknown++
		}
		return false
	}
	delete(l.pending, r.ID)
	l.results[r.ID] = r
	l.total += r.Triangles
	return true
}

// Complete reports whether every expected task has merged.
func (l *Ledger) Complete() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) == 0
}

// Total returns the merged triangle count so far.
func (l *Ledger) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Duplicates returns how many repeat deliveries Merge dropped.
func (l *Ledger) Duplicates() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.duplicates
}

// Unknown returns how many results arrived for ids the ledger never
// expected (a protocol error, kept visible rather than silently dropped).
func (l *Ledger) Unknown() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unknown
}

// Pending returns the ids still awaiting a result, sorted.
func (l *Ledger) Pending() []TaskID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TaskID, 0, len(l.pending))
	for id := range l.pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Results returns the accepted results, sorted by task id.
func (l *Ledger) Results() []TaskResultMessage {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TaskResultMessage, 0, len(l.results))
	for _, r := range l.results {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
