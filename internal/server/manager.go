// Package server is the optd serving layer: a job manager that runs
// triangulation jobs through engine.Run under a bounded worker pool, a
// bounded admission queue with backpressure, and a global memory-page
// budget, plus the HTTP/SSE front-end in http.go. DESIGN.md §10 documents
// the job lifecycle, the admission and budget rules, and the event
// mapping; this package is the substrate later scaling work (sharding,
// remote workers) builds on.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Admission and lifecycle errors. The HTTP layer maps each onto a status
// code; programmatic callers classify with errors.Is.
var (
	// ErrQueueFull: the bounded admission queue is at capacity → 429.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining: the daemon received SIGTERM and stopped admitting → 503.
	ErrDraining = errors.New("server: draining, not admitting jobs")
	// ErrBadRequest: the spec is malformed or fails engine validation → 400.
	ErrBadRequest = errors.New("server: bad request")
	// ErrBudgetTooLarge: the job's resolved memory budget exceeds the
	// global page budget, so it could never be scheduled → 413.
	ErrBudgetTooLarge = errors.New("server: job exceeds global page budget")
	// ErrNotFound: no job with that id → 404.
	ErrNotFound = errors.New("server: no such job")
)

// Config sizes the manager. Zero values select the documented defaults.
type Config struct {
	// Workers is the bounded pool size: at most Workers jobs run
	// concurrently (default 2).
	Workers int
	// QueueDepth bounds the admission queue: at most QueueDepth admitted
	// jobs wait for a worker; beyond that Submit fails with ErrQueueFull
	// (default 8).
	QueueDepth int
	// TotalPages is the global memory-page budget shared by concurrently
	// running jobs; a job's resolved Options.MemoryPages is acquired from
	// it before the run starts. 0 disables arbitration.
	TotalPages int
	// DefaultTimeout applies to jobs, local and distributed, whose spec
	// carries none (0 = no limit).
	DefaultTimeout time.Duration
	// EventBuffer is the per-job event ring/channel capacity (default 256).
	EventBuffer int
	// TempDir hosts per-job scratch directories (default: os.TempDir()).
	TempDir string
	// OnBudget, when non-nil, observes every budget acquire/release as
	// (inUse, total) — the accounting hook the backpressure tests assert
	// the never-exceeded invariant through.
	OnBudget func(inUse, total int)
	// WrapDevice, when non-nil, wraps every job's page device before the
	// run starts — the fault-injection seam the distributed chaos tests use
	// to make one agent's reads fail mid-shard.
	WrapDevice func(ssd.PageDevice) ssd.PageDevice
	// Dispatcher overrides how distributed jobs reach their agents (nil
	// selects the HTTP wire protocol).
	Dispatcher cluster.Dispatcher
	// DefaultAgents are the agent identities a distributed job falls back
	// to when its spec names none (the optd -agents flag).
	DefaultAgents []string
}

// Manager owns the job table, the worker pool, and the admission state.
type Manager struct {
	cfg    Config
	budget *PageBudget
	queue  chan *Job
	wg     sync.WaitGroup
	agents *http.Client // behind the default Dispatcher; nil when Config supplies one

	rootCtx    context.Context // parent of every job context; cancelled at the drain deadline
	cancelJobs context.CancelFunc

	mu       sync.Mutex
	draining bool
	seq      map[string]int64  // last id number handed out, per job kind
	jobs     map[string]*Job   // every tracked job, local and distributed
	order    []*Job            // tracked jobs in submission order, for listing
	stores   map[string]string // registered name → path
	opened   map[string]*storage.Store
	cache    map[string]outcome // digest-keyed completed local runs
	hits     int64
}

// New starts a manager with cfg's worker pool running.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	m := &Manager{
		cfg:    cfg,
		budget: NewPageBudget(cfg.TotalPages),
		queue:  make(chan *Job, cfg.QueueDepth),
		seq:    make(map[string]int64),
		jobs:   make(map[string]*Job),
		stores: make(map[string]string),
		opened: make(map[string]*storage.Store),
		cache:  make(map[string]outcome),
	}
	if m.cfg.Dispatcher == nil {
		// One client for every distributed job of the daemon: a client per
		// job left its agent connections — a goroutine pair and two buffers
		// on each side — open until the idle timeout, long after the job.
		m.agents = cluster.NewDefaultHTTPClient()
		m.cfg.Dispatcher = &cluster.HTTPDispatcher{Client: m.agents}
	}
	m.budget.SetHook(cfg.OnBudget)
	m.rootCtx, m.cancelJobs = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Budget exposes the global page-budget accounting.
func (m *Manager) Budget() *PageBudget { return m.budget }

// RegisterStore opens the store at path and makes it addressable as name
// in job specs.
func (m *Manager) RegisterStore(name, path string) error {
	if name == "" {
		return fmt.Errorf("%w: empty store name", ErrBadRequest)
	}
	st, err := storage.Open(path)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores[name] = path
	m.opened[path] = st
	return nil
}

// Stores returns the registered store names, sorted.
func (m *Manager) Stores() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.stores))
	for n := range m.stores {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolveStore maps a spec's store field — registered name or file path —
// onto an opened store. Ad-hoc paths are opened once and cached; the
// directories are memory resident but the data file is only opened per
// job, so a cached store holds no descriptor.
func (m *Manager) resolveStore(ref string) (*storage.Store, error) {
	if ref == "" {
		return nil, fmt.Errorf("%w: spec.store is required", ErrBadRequest)
	}
	m.mu.Lock()
	path, ok := m.stores[ref]
	if !ok {
		path = ref
	}
	if st, ok := m.opened[path]; ok {
		m.mu.Unlock()
		return st, nil
	}
	m.mu.Unlock()
	st, err := storage.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: opening store %q: %v", ErrBadRequest, ref, err)
	}
	m.mu.Lock()
	m.opened[path] = st
	m.mu.Unlock()
	return st, nil
}

// retainedJobs is how many finished jobs keep their full record — status,
// outcome and event replay ring. Admission forgets older finished jobs
// (GET and the event stream then answer 404); a queued or running job is
// never forgotten, and the result cache, an outcome pointer per digest,
// is not bounded by this.
const retainedJobs = 256

// forgetOldLocked drops the oldest terminal jobs beyond the newest
// retainedJobs from the job table. Callers hold m.mu.
func (m *Manager) forgetOldLocked() {
	terminal := 0
	for _, j := range m.order {
		if j.State().Terminal() {
			terminal++
		}
	}
	if terminal <= retainedJobs {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if terminal > retainedJobs && j.State().Terminal() {
			delete(m.jobs, j.ID)
			terminal--
			continue
		}
		kept = append(kept, j)
	}
	clear(m.order[len(kept):])
	m.order = kept
}

// admit is the one admission path of every job kind. The draining check,
// the id allocation, the kind's claim on a queue slot or goroutine, and the
// table insert share one critical section, so Drain — which flips draining
// under the same lock — joins every job that was ever admitted.
func (m *Manager) admit(kind string, timeout time.Duration, r runner) (*Job, error) {
	j := newJob(r, timeout, m.cfg.EventBuffer)
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.seq[kind]++
	j.ID = kind + strconv.FormatInt(m.seq[kind], 10)
	hit, err := r.place(m, j)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if hit != nil {
		j.started = j.created
	}
	m.forgetOldLocked()
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.mu.Unlock()
	if hit != nil {
		j.finish(StateDone, *hit, nil)
	}
	return j, nil
}

// Get returns the job with the given id, local or distributed.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every tracked job, local and distributed, in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Job(nil), m.order...)
}

// Drain shuts the manager down gracefully: admission stops immediately
// (Submit and SubmitDist fail with ErrDraining), in-flight and queued jobs
// get up to deadline to finish, then every remaining job context is
// cancelled and Drain waits for the pool workers and the coordinator
// goroutines to wind down — the engine contract bounds that by one
// iteration per job. It reports whether the deadline forced cancellation.
// Drain is idempotent; concurrent calls share the outcome.
func (m *Manager) Drain(deadline time.Duration) (forced bool) {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()

	// Past the deadline every job context is cancelled, which bounds the
	// wait below by one iteration per job. Stop reports false exactly when
	// that cancellation already fired.
	timer := time.AfterFunc(deadline, m.cancelJobs)
	m.wg.Wait()
	forced = !timer.Stop()
	m.cancelJobs()
	if m.agents != nil {
		m.agents.CloseIdleConnections()
	}
	return forced
}

// worker pulls admitted jobs off the bounded queue until it closes at
// drain time, finalizing every job it pops on every path.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.run(job)
	}
}

// run drives one admitted job of either kind through its lifecycle: run
// context, hand-over of the cancel func, the kind's runner, terminal state.
func (m *Manager) run(j *Job) {
	ctx, cancel := m.jobContext(j.timeout)
	defer cancel()
	if !j.begin(cancel) {
		return // a DELETE finalized the job while it waited
	}
	out, err := j.kind.run(ctx, m, j)
	j.finish(stateFor(err), out, err)
}

// jobContext derives a job's run context from the manager's root context,
// so a forced drain cancels it, bounded by the spec's timeout or, when the
// spec carries none, by Config.DefaultTimeout.
func (m *Manager) jobContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout == 0 {
		timeout = m.cfg.DefaultTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(m.rootCtx, timeout)
	}
	return context.WithCancel(m.rootCtx)
}

// parseDuration parses the optional Go-duration spec field named field;
// empty is 0.
func parseDuration(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%w: invalid %s %q", ErrBadRequest, field, s)
	}
	return d, nil
}

// stateFor maps a run error onto the terminal state: nil is StateDone,
// cancellation (DELETE, per-job timeout, drain) is StateCanceled,
// everything else StateFailed.
func stateFor(err error) State {
	switch {
	case err == nil:
		return StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StateCanceled
	}
	return StateFailed
}

// Stats is the daemon-level accounting served by /healthz.
type Stats struct {
	Workers     int   `json:"workers"`
	QueueLen    int   `json:"queue_len"`
	QueueCap    int   `json:"queue_cap"`
	Draining    bool  `json:"draining"`
	Jobs        int   `json:"jobs"`
	BudgetTotal int   `json:"budget_total_pages"`
	BudgetUsed  int   `json:"budget_in_use_pages"`
	BudgetHigh  int   `json:"budget_high_water_pages"`
	CacheHits   int64 `json:"cache_hits"`
}

// Stats returns a point-in-time snapshot of the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Workers:   m.cfg.Workers,
		QueueLen:  len(m.queue),
		QueueCap:  m.cfg.QueueDepth,
		Draining:  m.draining,
		Jobs:      len(m.jobs),
		CacheHits: m.hits,
	}
	m.mu.Unlock()
	s.BudgetTotal = m.budget.Total()
	s.BudgetUsed = m.budget.InUse()
	s.BudgetHigh = m.budget.HighWater()
	return s
}
