package server

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// stuckRunner is a local-kind runner that ignores its context: it blocks
// until release is closed.
type stuckRunner struct {
	running chan struct{} // closed once run has started
	release chan struct{}
}

func (r *stuckRunner) place(m *Manager, j *Job) (*outcome, error) {
	select {
	case m.queue <- j:
		return nil, nil
	default:
		return nil, ErrQueueFull
	}
}

func (r *stuckRunner) run(ctx context.Context, m *Manager, j *Job) (outcome, error) {
	j.markRunning()
	close(r.running)
	<-r.release
	return outcome{}, nil
}

func (r *stuckRunner) status(env JobStatus, out outcome) any { return env }

// TestDrainGivesUpOnRunnerIgnoringCancel: a runner that never looks at its
// context must not turn Drain into a hang. Drain returns after its
// deadline plus drainGrace, reports the drain as forced, and finishes and
// names the stuck job and the one queued behind it (canceled, ErrForced).
func TestDrainGivesUpOnRunnerIgnoringCancel(t *testing.T) {
	m := New(Config{Workers: 1})
	stuck := &stuckRunner{running: make(chan struct{}), release: make(chan struct{})}
	defer close(stuck.release) // lets the abandoned worker exit
	running, err := m.admit(kindLocal, 0, stuck)
	if err != nil {
		t.Fatal(err)
	}
	<-stuck.running
	queued, err := m.admit(kindLocal, 0, &stuckRunner{running: make(chan struct{}), release: stuck.release})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	forced, abandoned := m.Drain(50 * time.Millisecond)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Drain(50ms) took %v with a runner ignoring its context, want < 1s", d)
	}
	if !forced {
		t.Error("Drain past a stuck runner reported no forced cancellation")
	}
	if want := []string{running.ID, queued.ID}; !slices.Equal(abandoned, want) {
		t.Errorf("Drain named %v as forced off, want %v", abandoned, want)
	}
	for _, j := range []*Job{running, queued} {
		if _, err := j.Result(); j.State() != StateCanceled || !errors.Is(err, ErrForced) || !errors.Is(err, context.Canceled) {
			t.Errorf("job %s: state %v, err %v; want canceled with ErrForced", j.ID, j.State(), err)
		}
	}
}
