package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
)

// State is a job's position in its lifecycle. The machine is linear with
// three terminal states:
//
//	queued → running → done
//	                 ↘ failed
//	queued/running   → canceled   (DELETE, per-job timeout, drain deadline)
type State int

// Job states.
const (
	// StateQueued: admitted, waiting for a worker (or for budget pages).
	StateQueued State = iota
	// StateRunning: dispatched to its runner with everything it needs held.
	StateRunning
	// StateDone: finished with a full outcome.
	StateDone
	// StateFailed: finished with an error that was not a cancellation.
	StateFailed
	// StateCanceled: cancelled by DELETE, per-job timeout, or drain; a
	// partial outcome may accompany the state, exactly as engine.Run and the
	// coordinator report it under cancellation.
	StateCanceled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job kinds, which double as the id prefix ("j1", "d1", …) and select the
// API mount a job is visible under.
const (
	kindLocal = "j" // engine run on this node: Submit, POST /jobs, POST /tasks
	kindDist  = "d" // coordinator run over agent optds: SubmitDist, POST /dist/jobs
)

// runner is what differs between job kinds; everything else — identity,
// state machine, timestamps, cancellation, event hub, metrics, the done
// channel — is the one lifecycle in Job.
type runner interface {
	// place runs inside the admission critical section (Manager.mu held)
	// with the job's id allocated. It claims what the run needs — a slot in
	// the worker queue, or a manager-joined goroutine of its own — or fails
	// admission. A non-nil outcome means the answer is already known: the
	// job completes as a cache hit without running.
	place(m *Manager, j *Job) (*outcome, error)
	// run executes the job under ctx, calling j.markRunning once it holds
	// everything it waits for. A partial outcome may accompany an error.
	run(ctx context.Context, m *Manager, j *Job) (outcome, error)
	// status wraps the shared envelope in the kind's status document; out
	// is the zero outcome until the job is terminal.
	status(env JobStatus, out outcome) any
}

// outcome is what a finished run leaves behind.
type outcome struct {
	result  *engine.Result     // local job: the (possibly partial) engine result
	report  *cluster.RunReport // distributed job: the (possibly partial) merge
	metrics *metrics.Snapshot  // terminal per-job snapshot; finish fills it when nil
}

// Job is one admitted request — local or distributed — tracked by the
// manager's job table.
type Job struct {
	// ID is the manager-assigned identifier: "j<n>" for local jobs, "d<n>"
	// for distributed ones.
	ID string

	kind    runner
	timeout time.Duration // spec timeout, 0 = Config.DefaultTimeout

	hub       *eventHub
	collector *metrics.Collector

	mu       sync.Mutex
	state    State
	cancel   context.CancelFunc // non-nil once the run context exists
	out      outcome
	err      error
	created  time.Time
	started  time.Time
	finished time.Time

	done chan struct{} // closed on reaching a terminal state
}

func newJob(kind runner, timeout time.Duration, eventBuffer int) *Job {
	return &Job{
		kind:      kind,
		timeout:   timeout,
		hub:       newEventHub(eventBuffer),
		collector: metrics.NewCollector(),
		created:   time.Now(),
		done:      make(chan struct{}),
	}
}

// JobStatus is the part of the status document every job kind shares.
// Status and DistStatus embed it, so its fields inline in their JSON.
type JobStatus struct {
	ID       string            `json:"id"`
	State    string            `json:"state"`
	Error    string            `json:"error,omitempty"`
	Created  time.Time         `json:"created"`
	Started  *time.Time        `json:"started,omitempty"`
	Finished *time.Time        `json:"finished,omitempty"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
}

// Status returns a consistent snapshot of the job as the JSON document the
// HTTP API serves: a Status for a local job, a DistStatus for a distributed
// one.
func (j *Job) Status() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	env := JobStatus{
		ID:      j.ID,
		State:   j.state.String(),
		Created: j.created,
		Metrics: j.out.metrics,
	}
	if j.err != nil {
		env.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		env.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		env.Finished = &t
	}
	return j.kind.status(env, j.out)
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns a local job's (possibly partial) result and error after it
// reached a terminal state; both are nil/nil before that, and the result is
// nil for a distributed job.
func (j *Job) Result() (*engine.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out.result, j.err
}

// Report returns a distributed job's (possibly partial) merged report and
// error once it is terminal; nil/nil before that, and the report is nil for
// a local job.
func (j *Job) Report() (*cluster.RunReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out.report, j.err
}

// Cancel cancels the job: a queued job moves straight to canceled (its
// goroutine will skip it), a running one has its context cancelled and
// winds down — within an iteration for an engine run, after its in-flight
// attempts for a coordinator — reporting the partial outcome. Cancelling a
// terminal job is a no-op.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == StateQueued && cancel == nil
	j.mu.Unlock()
	switch {
	case queued:
		j.finish(StateCanceled, outcome{}, fmt.Errorf("server: job %s canceled before start: %w", j.ID, context.Canceled))
	case cancel != nil:
		cancel()
	}
}

// sink is where the job's runner sends progress: the per-job metrics
// collector and the SSE hub.
func (j *Job) sink() events.Sink { return events.Tee(j.collector, j.hub) }

// begin hands the run context's cancel func to the job. It reports false
// when a DELETE finalized the job while it waited to start.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancel = cancel
	return true
}

// markRunning moves the job from queued to running.
func (j *Job) markRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal state, records the outcome, wakes
// Done waiters, and closes the event hub so SSE streams terminate. Only
// the first call takes effect.
func (j *Job) finish(state State, out outcome, err error) {
	if out.metrics == nil {
		snap := j.collector.Snapshot()
		out.metrics = &snap
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.out = out
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
	j.hub.Close()
}
