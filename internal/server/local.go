package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Spec is the client-supplied description of one triangulation job: an
// envelope around the engine's own run configuration. Store names a store
// registered with the daemon or a path to an .optstore file; the embedded
// options carry the wire keys of their JSON tags (zero values select the
// engine defaults, unknown names are rejected at admission). The options
// tagged "-" are not on the wire and not in the digest: the run sets
// TempDir and Events itself, and in-process callers leave the rest zero.
type Spec struct {
	Store     string `json:"store"`
	Algorithm string `json:"algorithm"`
	Timeout   string `json:"timeout,omitempty"` // Go duration, e.g. "30s"
	engine.Options
}

// digest keys the result cache: two specs with the same digest would run
// the identical deterministic computation over the same store file, so a
// completed Result can be served without admission. The resolved store
// path (not the client's spelling) anchors the key; Timeout bounds how long
// the job may run, not what it computes. Every other field is part of the
// computation's identity, and hashing the spec's own JSON form puts a new
// field in the key the moment it has a tag.
func (s Spec) digest(storePath string) string {
	s.Store, s.Timeout = "", ""
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings, numbers, bools and a Model that renders any value always marshal
	}
	sum := sha256.Sum256(append([]byte(storePath+"\x00"), b...))
	return hex.EncodeToString(sum[:])
}

// Status is the JSON view of a local job served by the HTTP API.
type Status struct {
	JobStatus
	Spec      Spec   `json:"spec"`
	Algorithm string `json:"algorithm"`
	Pages     int    `json:"pages,omitempty"` // resolved budget
	Cached    bool   `json:"cached,omitempty"`
	// Result is served the same way when partial (a cancelled or failed
	// run), flagged by the job state and error.
	Result *engine.Result `json:"result,omitempty"`
}

// localRun is the runner of a local job: it waits in the bounded queue for
// a pool worker, acquires its pages from the global budget, and runs the
// engine over the store's device.
type localRun struct {
	spec   Spec // validated at admission
	store  *storage.Store
	pages  int // the resolved MemoryPages budget
	digest string
	cached bool // served from the result cache; set in place, before the job is visible
}

// Submit validates and admits a job. The fast path — a digest cache hit —
// returns an already-completed job without consuming queue or budget
// capacity. Admission failures are ErrBadRequest/ErrBudgetTooLarge
// (rejected outright), ErrQueueFull (backpressure: retry later) or
// ErrDraining (shutting down).
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if spec.Algorithm == "" {
		spec.Algorithm = "OPT"
	}
	timeout, err := parseDuration("timeout", spec.Timeout)
	if err != nil {
		return nil, err
	}
	if err := engine.ValidateFor(spec.Algorithm, spec.Options); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	st, err := m.resolveStore(spec.Store)
	if err != nil {
		return nil, err
	}
	pages := spec.Budget(st)
	if total := m.budget.Total(); total > 0 && pages > total {
		return nil, fmt.Errorf("%w: job needs %d pages, global budget is %d", ErrBudgetTooLarge, pages, total)
	}
	return m.admit(kindLocal, timeout, &localRun{spec: spec, store: st, pages: pages, digest: spec.digest(st.Path)})
}

// place serves the job from the result cache when its digest is known —
// the job is recorded as done without ever touching the queue, budget, or a
// worker — and otherwise claims a slot in the bounded worker queue.
func (r *localRun) place(m *Manager, j *Job) (*outcome, error) {
	if hit, ok := m.cache[r.digest]; ok {
		m.hits++
		r.cached = true
		res := *hit.result
		return &outcome{result: &res, metrics: hit.metrics}, nil
	}
	select {
	case m.queue <- j:
		return nil, nil
	default:
		return nil, ErrQueueFull
	}
}

// run executes the job end to end: budget acquisition, the engine run over
// the store's device, and the result-cache fill.
func (r *localRun) run(ctx context.Context, m *Manager, j *Job) (outcome, error) {
	// The budget wait happens while still queued: pages are only held by
	// running jobs, so the in-use sum tracks actual concurrent budgets.
	if err := m.budget.Acquire(ctx, r.pages); err != nil {
		return outcome{}, fmt.Errorf("server: job %s waiting for page budget: %w", j.ID, err)
	}
	defer m.budget.Release(r.pages)

	opts := r.spec.Options
	opts.MemoryPages = r.pages
	opts.TempDir = m.cfg.TempDir
	opts.Events = j.sink()

	res, err := engine.RunStore(ctx, r.spec.Algorithm, r.store, opts, func(dev ssd.PageDevice) ssd.PageDevice {
		// Running from here: the device is open and the engine dispatches
		// next, so a DELETE from now on finds the runner started.
		j.markRunning()
		if m.cfg.WrapDevice != nil {
			dev = m.cfg.WrapDevice(dev)
		}
		return dev
	})
	out := outcome{result: res}
	if err == nil {
		snap := j.collector.Snapshot()
		out.metrics = &snap
		m.mu.Lock()
		m.cache[r.digest] = out
		m.mu.Unlock()
	}
	return out, err
}

func (r *localRun) status(env JobStatus, out outcome) any {
	return Status{
		JobStatus: env,
		Spec:      r.spec,
		Algorithm: r.spec.Algorithm,
		Pages:     r.pages,
		Cached:    r.cached,
		Result:    out.result,
	}
}
