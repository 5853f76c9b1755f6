package core

import (
	"context"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// engineRunner adapts the OPT framework to the engine.Runner contract. One
// instance per Mode is registered at init, so both OPT variants flow
// through the same dispatch path as every baseline.
type engineRunner struct {
	mode Mode
}

func init() {
	engine.Register(engine.Info{
		Name:           Parallel.String(),
		ListsTriangles: true,
		Models:         true,
		Parallel:       true,
	}, engineRunner{mode: Parallel})
	engine.Register(engine.Info{
		Name:           Serial.String(),
		ListsTriangles: true,
		Models:         true,
	}, engineRunner{mode: Serial})
}

// modelKind maps the engine-level model selector onto the framework's.
func modelKind(m engine.Model) ModelKind {
	switch m {
	case engine.ModelVertex:
		return VertexIterator
	case engine.ModelMGTInstance:
		return MGTInstance
	default:
		return EdgeIterator
	}
}

// Run implements engine.Runner.
func (e engineRunner) Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	mx := metrics.NewCollector()
	var out Output
	if opts.OnTriangles != nil {
		out = FuncOutput(opts.OnTriangles)
	}
	res, err := RunContext(ctx, st, dev, Options{
		Model:            modelKind(opts.Model),
		Mode:             e.mode,
		Threads:          opts.Threads,
		MemoryPages:      opts.MemoryPages,
		QueueDepth:       opts.QueueDepth,
		Latency:          opts.Latency,
		DisableMorphing:  opts.DisableMorphing,
		Output:           out,
		Metrics:          mx,
		CollectIterStats: opts.CollectIterStats,
		Events:           opts.Events,
	})
	if res == nil {
		return nil, err
	}
	snap := mx.Snapshot()
	return &engine.Result{
		Triangles:    snap.Triangles,
		Iterations:   res.Iterations,
		Elapsed:      res.Elapsed,
		PagesRead:    snap.PagesRead,
		PagesWritten: snap.PagesWritten,
		ReusedPages:  snap.ReusedPages,
		IntersectOps: snap.IntersectOps,
		IterStats:    res.IterStats,
	}, err
}
