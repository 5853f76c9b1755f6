package server

import (
	"context"
	"fmt"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/engine"
)

// RunTask executes one distributed shard-pair task on this node by
// submitting it as an ordinary job — the task inherits the whole serving
// substrate: admission validation, queue backpressure (a saturated agent
// answers 429 and the coordinator retries elsewhere), the global page
// budget, the digest result cache (a re-dispatched task whose twin
// already ran here is served without re-reading a page), and per-job
// SSE/metrics.
//
// A returned error is an admission failure the HTTP layer maps to a
// status code; an execution failure (device fault, store mismatch,
// cancellation) comes back inside the result frame's Err field, so the
// coordinator books it against the attempt.
func (m *Manager) RunTask(ctx context.Context, t cluster.TaskMessage) (cluster.TaskResultMessage, error) {
	frame := cluster.TaskResultMessage{ID: t.ID, Attempt: t.Attempt}
	if err := t.Validate(); err != nil {
		return frame, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	st, err := m.resolveStore(t.Store)
	if err != nil {
		return frame, err
	}
	if t.Digest != "" {
		if got := cluster.DigestOf(st).Sum(); got != t.Digest {
			// The agent holds a different build of the graph: not an
			// admission error (another agent may hold the right one), so it
			// travels inside the frame as an execution failure.
			frame.Err = fmt.Sprintf("store %s digests %s, task wants %s", t.Store, got, t.Digest)
			return frame, nil
		}
	}
	job, err := m.Submit(Spec{Store: t.Store, Algorithm: cluster.ShardRunnerName, Options: engine.Options{
		MemoryPages: t.MemoryPages,
		Codec:       t.Codec,
		Backend:     t.Backend,
		ShardGrid:   t.Grid,
		ShardI:      t.I,
		ShardJ:      t.J,
	}})
	if err != nil {
		return frame, err
	}
	start := time.Now()
	select {
	case <-job.Done():
	case <-ctx.Done():
		// The coordinator hung up (straggler replacement won, or the whole
		// job died): stop burning budget on a result nobody will merge.
		job.Cancel()
		<-job.Done()
	}
	res, err := job.Result()
	if err != nil {
		frame.Err = err.Error()
	}
	if res != nil {
		frame.Triangles = res.Triangles
		frame.Report = cluster.TaskReport{
			PagesRead:    res.PagesRead,
			IntersectOps: res.IntersectOps,
			ElapsedNS:    int64(time.Since(start)),
		}
	}
	return frame, nil
}
