package gchi

import (
	"context"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// engineRunner adapts GraphChi-Tri to the engine.Runner contract. It is a
// counting method, so its Info advertises ListsTriangles=false and the
// engine rejects Options.OnTriangles before dispatch.
type engineRunner struct{}

func init() {
	engine.Register(engine.Info{
		Name:     "GraphChi-Tri",
		Parallel: true,
	}, engineRunner{})
}

// Run implements engine.Runner.
func (engineRunner) Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	mx := metrics.NewCollector()
	res, err := RunContext(ctx, st, dev, Options{
		MemoryPages: opts.MemoryPages,
		Threads:     opts.Threads,
		TempDir:     opts.TempDir,
		Latency:     opts.Latency,
		Metrics:     mx,
		Events:      opts.Events,
		RecordTasks: opts.CollectIterStats,
	})
	if res == nil {
		return nil, err
	}
	snap := mx.Snapshot()
	return &engine.Result{
		Triangles:    res.Triangles,
		Iterations:   res.Iterations,
		Elapsed:      res.Elapsed,
		PagesRead:    snap.PagesRead,
		PagesWritten: snap.PagesWritten,
		IntersectOps: snap.IntersectOps,
	}, err
}
