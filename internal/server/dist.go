package server

import (
	"context"
	"fmt"

	"github.com/optlab/opt/internal/cluster"
)

// DistSpec is the client-supplied description of one distributed job: a
// coordinator optd fans the 2D shard-pair task set of Store out to the
// agent optds at Agents and merges the results exactly once.
type DistSpec struct {
	// Store is the store path every agent resolves locally (shared
	// filesystem or identical replica — the digest check catches drift).
	Store string `json:"store"`
	// Agents are agent optd base URLs (or opaque dispatcher keys under a
	// custom Config.Dispatcher).
	Agents []string `json:"agents"`
	// Grid is the decomposition dimension (0 = 1: a single task).
	Grid int `json:"grid,omitempty"`
	// Codec, Backend, MemoryPages forward into every task.
	Codec       string `json:"codec,omitempty"`
	Backend     string `json:"backend,omitempty"`
	MemoryPages int    `json:"memory_pages,omitempty"`
	// MaxAttempts is the per-task attempt budget (0 = coordinator default).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RetryBackoff and StragglerAfter are Go durations ("50ms"); empty
	// selects the coordinator defaults / disables straggler re-dispatch.
	RetryBackoff   string `json:"retry_backoff,omitempty"`
	StragglerAfter string `json:"straggler_after,omitempty"`
	// Timeout bounds the whole distributed job (Go duration; empty = none).
	Timeout string `json:"timeout,omitempty"`
}

// DistStatus is the JSON view of a distributed job.
type DistStatus struct {
	JobStatus
	Spec   DistSpec           `json:"spec"`
	Digest string             `json:"digest,omitempty"`
	Tasks  int                `json:"tasks"`
	Report *cluster.RunReport `json:"report,omitempty"`
}

// distRun is the runner of a distributed job: a coordinator on a goroutine
// of its own. It takes no pool slot and no budget pages — on a node that is
// also an agent, a coordinator must never occupy a worker its own tasks may
// need.
type distRun struct {
	spec DistSpec
	cfg  cluster.CoordinatorConfig
	// coord and tasks are set in place, once the job id names the tasks.
	coord *cluster.Coordinator
	tasks int
}

// SubmitDist validates and launches a distributed job. The coordinator
// runs on a manager-joined goroutine under the manager's root context, so
// a forced drain cancels it like any local job.
func (m *Manager) SubmitDist(spec DistSpec) (*Job, error) {
	if len(spec.Agents) == 0 {
		spec.Agents = append([]string(nil), m.cfg.DefaultAgents...)
	}
	if len(spec.Agents) == 0 {
		return nil, fmt.Errorf("%w: spec.agents is required", ErrBadRequest)
	}
	if spec.Grid < 0 {
		return nil, fmt.Errorf("%w: spec.grid must be non-negative, got %d", ErrBadRequest, spec.Grid)
	}
	timeout, err := parseDuration("timeout", spec.Timeout)
	if err != nil {
		return nil, err
	}
	backoff, err := parseDuration("retry_backoff", spec.RetryBackoff)
	if err != nil {
		return nil, err
	}
	straggler, err := parseDuration("straggler_after", spec.StragglerAfter)
	if err != nil {
		return nil, err
	}
	// Resolving the store pins the digest every agent must match.
	st, err := m.resolveStore(spec.Store)
	if err != nil {
		return nil, err
	}
	return m.admit(kindDist, timeout, &distRun{spec: spec, cfg: cluster.CoordinatorConfig{
		Agents:         spec.Agents,
		Grid:           spec.Grid,
		Store:          spec.Store,
		Digest:         cluster.DigestOf(st).Sum(),
		Codec:          spec.Codec,
		Backend:        spec.Backend,
		MemoryPages:    spec.MemoryPages,
		MaxAttempts:    spec.MaxAttempts,
		RetryBackoff:   backoff,
		StragglerAfter: straggler,
	}})
}

// place builds the coordinator under the allocated id and starts its
// goroutine, registered with the manager's join group in the same critical
// section that checked draining — Drain can never miss it.
func (r *distRun) place(m *Manager, j *Job) (*outcome, error) {
	r.cfg.Job = j.ID
	r.cfg.Events = j.sink()
	coord, err := cluster.NewCoordinator(r.cfg, m.cfg.Dispatcher)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	r.coord, r.tasks = coord, len(coord.Tasks())
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.run(j)
	}()
	return nil, nil
}

func (r *distRun) run(ctx context.Context, _ *Manager, j *Job) (outcome, error) {
	j.markRunning()
	rep, err := r.coord.Run(ctx)
	return outcome{report: rep}, err
}

func (r *distRun) status(env JobStatus, out outcome) any {
	return DistStatus{
		JobStatus: env,
		Spec:      r.spec,
		Digest:    r.cfg.Digest,
		Tasks:     r.tasks,
		Report:    out.report,
	}
}
