package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/events"
)

// Dispatcher executes one attempt of one shard-pair task against one
// agent and returns the agent's result frame. A transport or agent-crash
// failure is reported as an error (the coordinator retries elsewhere); an
// agent that ran the task but failed it returns a frame with Err set.
type Dispatcher interface {
	Dispatch(ctx context.Context, agent string, task TaskMessage) (TaskResultMessage, error)
}

// DispatchFunc adapts a function to Dispatcher.
type DispatchFunc func(ctx context.Context, agent string, task TaskMessage) (TaskResultMessage, error)

// Dispatch implements Dispatcher.
func (f DispatchFunc) Dispatch(ctx context.Context, agent string, task TaskMessage) (TaskResultMessage, error) {
	return f(ctx, agent, task)
}

// Coordinator defaults.
const (
	// DefaultMaxAttempts is the per-task attempt budget (first dispatch,
	// failure retries, and speculative straggler duplicates all count).
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the first retry delay; it doubles per retry.
	DefaultRetryBackoff = 25 * time.Millisecond
	// DefaultSlotsPerAgent bounds the concurrent tasks per agent.
	DefaultSlotsPerAgent = 2
)

// CoordinatorConfig configures one distributed job.
type CoordinatorConfig struct {
	// Agents are the dispatch identities — base URLs under HTTPDispatcher,
	// opaque keys under an in-process test dispatcher. At least one.
	Agents []string
	// Grid is the 2D decomposition dimension g; the job has g(g+1)/2
	// shard-pair tasks. 0 selects 1.
	Grid int
	// Job names the job; task ids are derived from it.
	Job string
	// Store is the agent-local store path forwarded in every task.
	Store string
	// Digest is StoreDigest.Sum() of the coordinator's view of the store
	// (empty skips the agent-side check).
	Digest string
	// Codec, Backend, MemoryPages forward into each task's job options.
	Codec, Backend string
	MemoryPages    int
	// MaxAttempts is the per-task attempt budget (0 = DefaultMaxAttempts).
	MaxAttempts int
	// RetryBackoff is the initial delay before a failure retry, doubled per
	// retry (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
	// StragglerAfter, when positive, arms a per-task deadline: a task with
	// no result after this long gets a concurrent duplicate attempt on
	// another agent, first result wins.
	StragglerAfter time.Duration
	// SlotsPerAgent bounds concurrent attempts per agent
	// (0 = DefaultSlotsPerAgent).
	SlotsPerAgent int
	// Events receives ShardDispatched/ShardRetried/ShardMerged progress
	// (nil disables).
	Events events.Sink
}

// RunReport is the merged outcome of one distributed job. The JSON tags
// are the "report" object of an optd distributed-job status.
type RunReport struct {
	// Triangles is the exactly-once merged total.
	Triangles int64 `json:"triangles"`
	// Tasks is the task-set size, Grid·(Grid+1)/2.
	Tasks int `json:"tasks"`
	// Dispatched counts every attempt launched; Retries counts the
	// failure-driven relaunches among them and Stragglers the speculative
	// duplicates.
	Dispatched int `json:"dispatched"`
	Retries    int `json:"retries"`
	Stragglers int `json:"stragglers"`
	// Duplicates counts repeat result deliveries the ledger dropped — the
	// straggler whose speculative replacement won still reports in, and
	// lands here instead of the total.
	Duplicates int `json:"duplicates"`
	// Failed lists tasks that exhausted their attempt budget.
	Failed []TaskID `json:"failed,omitempty"`
	// Elapsed is the job wall time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// PerTask holds the accepted result of every merged task, sorted by id.
	PerTask []TaskResultMessage `json:"per_task,omitempty"`
}

// Coordinator drives one distributed job: it enumerates the shard-pair
// task set, dispatches tasks to agents under per-agent concurrency slots,
// retries failed attempts with exponential backoff on a different agent,
// re-dispatches stragglers speculatively, and merges results through an
// exactly-once ledger.
type Coordinator struct {
	cfg      CoordinatorConfig
	dispatch Dispatcher
	slots    []chan struct{}
}

// NewCoordinator validates cfg and builds a Coordinator over d.
func NewCoordinator(cfg CoordinatorConfig, d Dispatcher) (*Coordinator, error) {
	if len(cfg.Agents) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one agent")
	}
	if d == nil {
		return nil, errors.New("cluster: coordinator needs a dispatcher")
	}
	if cfg.Grid == 0 {
		cfg.Grid = 1
	}
	if cfg.Grid < 1 {
		return nil, fmt.Errorf("cluster: grid dimension %d, want >= 1", cfg.Grid)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.MaxAttempts < 1 {
		return nil, fmt.Errorf("cluster: max attempts %d, want >= 1", cfg.MaxAttempts)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.SlotsPerAgent == 0 {
		cfg.SlotsPerAgent = DefaultSlotsPerAgent
	}
	if cfg.SlotsPerAgent < 1 {
		return nil, fmt.Errorf("cluster: slots per agent %d, want >= 1", cfg.SlotsPerAgent)
	}
	if cfg.Store == "" {
		return nil, errors.New("cluster: coordinator needs a store path")
	}
	if cfg.Job == "" {
		cfg.Job = "dist"
	}
	c := &Coordinator{cfg: cfg, dispatch: d, slots: make([]chan struct{}, len(cfg.Agents))}
	for i := range c.slots {
		c.slots[i] = make(chan struct{}, cfg.SlotsPerAgent)
	}
	return c, nil
}

// Tasks enumerates the job's task frames in shard order (attempt 0).
func (c *Coordinator) Tasks() []TaskMessage {
	grid := Grid{Dim: c.cfg.Grid}
	shards := grid.Shards()
	out := make([]TaskMessage, len(shards))
	for i, s := range shards {
		out[i] = c.taskFor(s)
	}
	return out
}

func (c *Coordinator) taskFor(s Shard) TaskMessage {
	return TaskMessage{
		ID:          MakeTaskID(c.cfg.Job, s),
		Job:         c.cfg.Job,
		Grid:        c.cfg.Grid,
		I:           s.I,
		J:           s.J,
		Store:       c.cfg.Store,
		Digest:      c.cfg.Digest,
		Codec:       c.cfg.Codec,
		Backend:     c.cfg.Backend,
		MemoryPages: c.cfg.MemoryPages,
	}
}

// attemptOutcome is the failure channel payload of one attempt; successes
// bypass it and go straight to the result channel.
type attemptOutcome struct {
	agent string
	err   error
}

// runCounters aggregates attempt accounting across task workers.
type runCounters struct {
	dispatched atomic.Int64
	retries    atomic.Int64
	stragglers atomic.Int64
}

// Run executes the job and returns the merged report. On cancellation or
// after a task exhausts its attempt budget the report still carries the
// partial total merged so far, alongside the error.
func (c *Coordinator) Run(ctx context.Context) (*RunReport, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tasks := c.Tasks()
	ids := make([]TaskID, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	led := NewLedger(ids)

	// merged closes a task's entry the moment its first result lands, so
	// workers stop retrying; late duplicates still flow to the ledger.
	merged := make(map[TaskID]chan struct{}, len(tasks))
	for _, id := range ids {
		merged[id] = make(chan struct{})
	}

	// Every send below is buffered beyond the worst case — attempts per
	// task are capped at MaxAttempts — so no attempt goroutine can block
	// forever on a channel after the run winds down.
	resCh := make(chan TaskResultMessage, len(tasks)*c.cfg.MaxAttempts)
	var counters runCounters
	var failed struct {
		mu  sync.Mutex
		ids []TaskID
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(idx int, task TaskMessage) {
			defer wg.Done()
			if c.runTask(ctx, idx, task, merged[task.ID], resCh, &counters, &wg) {
				return
			}
			failed.mu.Lock()
			failed.ids = append(failed.ids, task.ID)
			failed.mu.Unlock()
			cancel() // the job cannot complete; stop the other workers
		}(i, t)
	}

	// The collector owns the ledger merge order and the merged-signal
	// close; it drains resCh until every worker and attempt has finished.
	var collectWG sync.WaitGroup
	collectWG.Add(1)
	go func() {
		defer collectWG.Done()
		for r := range resCh {
			if led.Merge(r) {
				close(merged[r.ID])
				if sink := c.cfg.Events; sink != nil {
					sink.Event(events.Event{
						Kind:      events.ShardMerged,
						Algorithm: ShardRunnerName,
						Iteration: c.taskIndex(r.ID, ids),
						N:         r.Triangles,
						Elapsed:   time.Duration(r.Report.ElapsedNS),
					})
				}
			}
		}
	}()

	wg.Wait()
	close(resCh)
	collectWG.Wait()

	rep := &RunReport{
		Triangles:  led.Total(),
		Tasks:      len(tasks),
		Dispatched: int(counters.dispatched.Load()),
		Retries:    int(counters.retries.Load()),
		Stragglers: int(counters.stragglers.Load()),
		Duplicates: led.Duplicates(),
		Failed:     failed.ids,
		Elapsed:    time.Since(start),
		PerTask:    led.Results(),
	}
	if err := ctx.Err(); err != nil && len(rep.Failed) == 0 {
		return rep, err
	}
	if !led.Complete() {
		return rep, fmt.Errorf("cluster: job %s incomplete: %d of %d tasks unmerged (failed: %v)",
			c.cfg.Job, len(led.Pending()), len(tasks), rep.Failed)
	}
	return rep, nil
}

func (c *Coordinator) taskIndex(id TaskID, ids []TaskID) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

// runTask drives all attempts of one task until its result merges, the
// context dies, or the attempt budget runs out (returning false only in
// the last case). Speculative straggler attempts run concurrently with
// the primary; whichever result reaches the collector first wins and the
// loser is deduped by the ledger.
func (c *Coordinator) runTask(ctx context.Context, idx int, task TaskMessage, mergedC <-chan struct{}, resCh chan<- TaskResultMessage, counters *runCounters, wg *sync.WaitGroup) bool {
	failCh := make(chan attemptOutcome, c.cfg.MaxAttempts)
	attempt := 0
	inflight := 0

	launch := func(speculative bool) bool {
		if attempt >= c.cfg.MaxAttempts {
			return false
		}
		t := task
		t.Attempt = attempt
		agentIdx := (idx + attempt) % len(c.cfg.Agents)
		attempt++
		inflight++
		counters.dispatched.Add(1)
		if sink := c.cfg.Events; sink != nil {
			kind := events.ShardDispatched
			if t.Attempt > 0 {
				kind = events.ShardRetried
			}
			sink.Event(events.Event{Kind: kind, Algorithm: ShardRunnerName, Iteration: idx, N: int64(t.Attempt) + 1})
		}
		if t.Attempt > 0 {
			if speculative {
				counters.stragglers.Add(1)
			} else {
				counters.retries.Add(1)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runAttempt(ctx, agentIdx, t, resCh, failCh)
		}()
		return true
	}

	launch(false)
	var stragglerC <-chan time.Time
	var stragglerT *time.Timer
	if c.cfg.StragglerAfter > 0 {
		stragglerT = time.NewTimer(c.cfg.StragglerAfter)
		defer stragglerT.Stop()
		stragglerC = stragglerT.C
	}
	backoff := c.cfg.RetryBackoff
	for {
		select {
		case <-mergedC:
			return true
		case <-ctx.Done():
			return true // not a budget failure; Run reports ctx.Err itself
		case <-stragglerC:
			stragglerC = nil
			launch(true) // budget may be spent; the primary attempt rules then
		case o := <-failCh:
			inflight--
			if errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded) {
				if ctx.Err() != nil {
					return true
				}
			}
			if attempt >= c.cfg.MaxAttempts && inflight == 0 {
				return false
			}
			if inflight > 0 {
				continue // a speculative sibling is still running; let it race
			}
			if !sleepCtx(ctx, backoff) {
				return true
			}
			backoff *= 2
			if !launch(false) && inflight == 0 {
				return false
			}
		}
	}
}

// runAttempt performs one dispatch under the agent's concurrency slot.
// Successes go straight to resCh (buffered for the worst case), failures
// to failCh.
func (c *Coordinator) runAttempt(ctx context.Context, agentIdx int, task TaskMessage, resCh chan<- TaskResultMessage, failCh chan<- attemptOutcome) {
	agent := c.cfg.Agents[agentIdx]
	select {
	case c.slots[agentIdx] <- struct{}{}:
	case <-ctx.Done():
		failCh <- attemptOutcome{agent: agent, err: ctx.Err()}
		return
	}
	res, err := c.dispatch.Dispatch(ctx, agent, task)
	<-c.slots[agentIdx]
	if err == nil && res.Err != "" {
		err = fmt.Errorf("cluster: agent %s failed task %s: %s", agent, task.ID, res.Err)
	}
	if err == nil && res.ID != task.ID {
		err = fmt.Errorf("cluster: agent %s answered task %s with result for %s", agent, task.ID, res.ID)
	}
	if err != nil {
		failCh <- attemptOutcome{agent: agent, err: err}
		return
	}
	if res.Report.Agent == "" {
		res.Report.Agent = agent
	}
	resCh <- res
}

// sleepCtx sleeps for d unless ctx dies first, reporting whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
