// Package engine defines the unified execution contract every disk-based
// triangulation algorithm in this repository plugs into. The paper's §3.5
// observation — EdgeIterator, VertexIterator and even MGT are all instances
// of one generic framework — generalises across the whole comparison suite:
// every method is a Runner that consumes a slotted-page store through a
// PageDevice under one Options/Result shape, honours context cancellation,
// and reports progress through an events.Sink. The public API dispatches
// through the name→Runner registry instead of a per-algorithm switch, so
// new backends (shards, remote stores, new algorithms) register themselves
// and become reachable from every entry point at once.
package engine

import (
	"context"
	"fmt"
	"time"

	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Model selects the pluggable iterator model for runners that support one
// (§2.2, §3.5). Runners without model support ignore it; Validate rejects a
// non-default model for them.
type Model int

// Iterator models.
const (
	// ModelEdge intersects n≻(u) ∩ n≻(v) per edge — the default (§5.1).
	ModelEdge Model = iota
	// ModelVertex checks pairs (v, w) ∈ n≻(u)² against E.
	ModelVertex
	// ModelMGTInstance is the §3.5 degenerate framework instantiation.
	ModelMGTInstance
)

// modelNames holds the option spelling of every iterator model.
var modelNames = [...]string{ModelEdge: "edge", ModelVertex: "vertex", ModelMGTInstance: "mgt"}

// String returns the spelling ParseModel accepts for m.
func (m Model) String() string {
	if m < 0 || int(m) >= len(modelNames) {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return modelNames[m]
}

// ParseModel resolves the -model / spec.model spelling of an iterator
// model: edge, vertex or mgt. Anything else, the empty string included, is
// an error naming the accepted spellings.
func ParseModel(s string) (Model, error) {
	for m, name := range modelNames {
		if s == name {
			return Model(m), nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (want edge, vertex or mgt)", s)
}

// MarshalText renders m in its option spelling, so a Model is a string on
// the wire.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText is ParseModel, except that the empty string is the edge
// model: an absent and an empty "model" key are the same request.
func (m *Model) UnmarshalText(b []byte) (err error) {
	*m = ModelEdge
	if len(b) > 0 {
		*m, err = ParseModel(string(b))
	}
	return err
}

// Options is the engine-wide run configuration: the one struct between the
// public API and an algorithm. Zero values select per-runner defaults. The
// JSON tags are the keys of an optd job spec, which embeds Options; a field
// tagged "-" is set by the layer that runs the job, never by a client.
type Options struct {
	// Model selects the iterator model for runners that support one.
	Model Model `json:"model,omitempty"`
	// Threads is the worker count for parallel runners (0 = runner
	// default).
	Threads int `json:"threads,omitempty"`
	// MemoryPages is the buffer budget m in pages. When 0, MemoryFraction
	// applies. Run resolves it before the Runner sees the options.
	MemoryPages int `json:"memory_pages,omitempty"`
	// MemoryFraction sets the budget as a fraction of the store size
	// (0 selects the paper's 15% default; must otherwise lie in (0, 1]).
	MemoryFraction float64 `json:"memory_fraction,omitempty"`
	// QueueDepth is the FlashSSD channel parallelism (0 = default 8).
	QueueDepth int `json:"queue_depth,omitempty"`
	// Latency simulates device latency on every page access.
	Latency ssd.Latency `json:"-"`
	// DisableMorphing turns off thread morphing (OPT only; Figure 4).
	DisableMorphing bool `json:"-"`
	// OnTriangles, when non-nil, receives every triangle in the nested
	// representation ⟨u, v, {w…}⟩. It must be safe for concurrent calls.
	// Validate rejects it for counting-only runners.
	OnTriangles func(u, v uint32, ws []uint32) `json:"-"`
	// CollectIterStats records per-iteration timings where supported and,
	// with Events set, one events.TaskDone per unit of parallelisable work.
	CollectIterStats bool `json:"collect_iter_stats,omitempty"`
	// Codec, when non-empty, requires the store to have been built with the
	// named page codec (see storage.Codecs); Run rejects a mismatch before
	// dispatch. It documents a throughput assumption — e.g. a job tuned for
	// deltavarint page counts — rather than converting the store.
	Codec string `json:"codec,omitempty"`
	// Backend selects how the store device reaches the disk: "portable",
	// "native", "auto", or empty for the ssd package's default resolution
	// (the OPT_BACKEND environment variable, then portable). Validate
	// rejects unknown names; callers that open the device themselves pass
	// the same value to Store.DeviceBackend.
	Backend string `json:"backend,omitempty"`
	// TempDir holds working files for runners that rewrite the graph.
	TempDir string `json:"-"`
	// Events receives progress events (nil disables the event layer).
	Events events.Sink `json:"-"`
	// ShardGrid selects the 2D vertex-block grid dimension g of the
	// distributed layer (DESIGN.md §15): the vertex id space splits into g
	// contiguous blocks and a run is restricted to one block-pair task.
	// 0 disables sharding (and is the only value runners without shard
	// support accept); 1 is a single task covering the whole store.
	ShardGrid int `json:"shard_grid,omitempty"`
	// ShardI and ShardJ are the block-pair coordinates of the task to run,
	// 0 ≤ ShardI ≤ ShardJ < ShardGrid. Both must be 0 when ShardGrid is 0.
	ShardI int `json:"shard_i,omitempty"`
	ShardJ int `json:"shard_j,omitempty"`
}

// IterationStat describes one outer-loop iteration of an overlapped run
// (Figure 4). It lives here so both the core framework and the public API
// share one definition. The JSON tags are the "iter_stats" entries of an
// optd job status.
type IterationStat struct {
	Index         int           `json:"index"`
	InternalPages int           `json:"internal_pages"` // pages covered by the internal area
	ReusedPages   int           `json:"reused_pages"`   // of those, served from buffered frames (Δin)
	ExternalReqs  int           `json:"external_reqs"`  // |L_i|: external chunk requests
	InternalTime  time.Duration `json:"internal_ns"`    // busy time of the main (internal-home) thread side
	ExternalTime  time.Duration `json:"external_ns"`    // busy time of the callback (external-home) thread side
	LoadTime      time.Duration `json:"load_ns"`        // wall time of the internal-area load phase
	Elapsed       time.Duration `json:"elapsed_ns"`     // wall time of the whole iteration
}

// Result is the uniform run report. On cancellation or device failure a
// Runner returns a partial Result alongside the error, so callers can
// report progress made before the interruption. The JSON tags are the
// "result" object of an optd job status.
type Result struct {
	// Algorithm is the registry name that produced the result.
	Algorithm string `json:"algorithm"`
	// Triangles is the triangle count (so far, on a partial result).
	Triangles int64 `json:"triangles"`
	// Iterations is the number of completed outer-loop iterations/blocks.
	Iterations int `json:"iterations"`
	// Elapsed is the wall-clock time, including simulated latency.
	Elapsed time.Duration `json:"elapsed_ns"`
	// PagesRead and PagesWritten are the I/O volumes in pages.
	PagesRead    int64 `json:"pages_read"`
	PagesWritten int64 `json:"pages_written"`
	// ReusedPages is the Δin buffered-page credit (OPT only).
	ReusedPages int64 `json:"reused_pages"`
	// IntersectOps is the Eq. 3 min-model CPU cost.
	IntersectOps int64 `json:"intersect_ops"`
	// IterStats is populated when Options.CollectIterStats is set.
	IterStats []IterationStat `json:"iter_stats,omitempty"`
}

// NewResult returns the Result of a run whose counters mx collected: its
// triangles, page I/O, Δin credit and Eq. 3 cost. The runner adds what only
// it knows (Iterations, IterStats); Run stamps Algorithm and Elapsed.
func NewResult(mx *metrics.Collector) *Result {
	return &Result{
		Triangles:    mx.Triangles(),
		PagesRead:    mx.PagesRead(),
		PagesWritten: mx.PagesWritten(),
		ReusedPages:  mx.ReusedPages(),
		IntersectOps: mx.IntersectOps(),
	}
}

// Runner executes one triangulation algorithm over a store whose data
// pages are served by dev. A registered Runner is the algorithm's entry:
// it reads Options directly and builds its Result from a private
// metrics.Collector. Implementations must honour ctx: on
// cancellation they return promptly (within one iteration) with a partial
// Result and an error satisfying errors.Is(err, ctx.Err()), and must not
// leak goroutines on any path.
type Runner interface {
	Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts Options) (*Result, error)
}

// Budget resolves the buffer budget in pages for st: MemoryPages when set,
// otherwise MemoryFraction (default 0.15) of the store, minimum 2.
func (o Options) Budget(st *storage.Store) int {
	if o.MemoryPages > 0 {
		return o.MemoryPages
	}
	f := o.MemoryFraction
	if f <= 0 {
		f = 0.15
	}
	m := int(float64(st.NumPages) * f)
	if m < 2 {
		m = 2
	}
	return m
}

// Validate checks the options against the capabilities of the runner they
// are destined for. It is the single validation point for every dispatch
// path. Every rejection names the offending field as Options.<Field>, so
// callers surfacing the error (the optd admission layer, CLI front-ends)
// report a uniform, greppable message regardless of which knob was bad.
func (o Options) Validate(info Info) error {
	nonNegative := []struct {
		field string
		v     int
	}{
		{"Threads", o.Threads},
		{"QueueDepth", o.QueueDepth},
		{"MemoryPages", o.MemoryPages},
	}
	for _, k := range nonNegative {
		if k.v < 0 {
			return fmt.Errorf("engine: Options.%s must be non-negative, got %d", k.field, k.v)
		}
	}
	if o.ShardGrid < 0 {
		return fmt.Errorf("engine: Options.ShardGrid must be non-negative, got %d", o.ShardGrid)
	}
	if (o.ShardGrid != 0 || o.ShardI != 0 || o.ShardJ != 0) && !info.Shards {
		return fmt.Errorf("engine: Options.ShardGrid is unsupported by %s: it has no 2D shard decomposition", info.Name)
	}
	if o.ShardGrid == 0 {
		if o.ShardI != 0 || o.ShardJ != 0 {
			return fmt.Errorf("engine: Options.ShardI/ShardJ = (%d, %d) require Options.ShardGrid > 0", o.ShardI, o.ShardJ)
		}
	} else if o.ShardI < 0 || o.ShardJ < o.ShardI || o.ShardJ >= o.ShardGrid {
		return fmt.Errorf("engine: Options.ShardI/ShardJ = (%d, %d) outside 0 ≤ i ≤ j < %d", o.ShardI, o.ShardJ, o.ShardGrid)
	}
	if f := o.MemoryFraction; !(f >= 0 && f <= 1) { // written so that NaN fails too
		return fmt.Errorf("engine: Options.MemoryFraction must lie in (0, 1], got %v", f)
	}
	if o.OnTriangles != nil && !info.ListsTriangles {
		return fmt.Errorf("engine: Options.OnTriangles must be nil for %s: it is a counting method and cannot list triangles", info.Name)
	}
	if o.Model != ModelEdge && !info.Models {
		return fmt.Errorf("engine: Options.Model is unsupported by %s: it has no iterator model selection", info.Name)
	}
	if o.Codec != "" {
		if _, err := storage.CodecByName(o.Codec); err != nil {
			return fmt.Errorf("engine: Options.Codec: %w", err)
		}
	}
	if o.Backend != "" {
		if _, err := ssd.ParseBackend(o.Backend); err != nil {
			return fmt.Errorf("engine: Options.Backend: %w", err)
		}
	}
	return nil
}

// ValidateFor validates opts against the runner registered under name
// without dispatching a run. Admission layers (the optd job manager) use
// it to reject malformed jobs at submit time through the same single
// validation point engine.Run applies before dispatch.
func ValidateFor(name string, opts Options) error {
	_, info, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("engine: unknown algorithm %q (registered: %v)", name, Names())
	}
	return opts.Validate(info)
}

// Run validates opts, resolves the memory budget, and dispatches to the
// registered Runner for name. It is the single code path every algorithm
// invocation flows through. The returned Result carries the registry name
// and wall-clock elapsed time; on cancellation or failure it may be a
// partial result accompanying a non-nil error.
func Run(ctx context.Context, name string, st *storage.Store, dev ssd.PageDevice, opts Options) (*Result, error) {
	r, info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q (registered: %v)", name, Names())
	}
	if err := opts.Validate(info); err != nil {
		return nil, err
	}
	if opts.Codec != "" && st.CodecName() != opts.Codec {
		return nil, fmt.Errorf("engine: Options.Codec is %q but the store was built with %q", opts.Codec, st.CodecName())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.MemoryPages = opts.Budget(st)
	if sink := opts.Events; sink != nil {
		sink.Event(events.Event{Kind: events.RunStart, Algorithm: name, Iteration: -1})
	}
	start := time.Now()
	res, err := r.Run(ctx, st, dev, opts)
	if res == nil && err == nil {
		return nil, fmt.Errorf("engine: runner %s returned neither result nor error", name)
	}
	if res != nil {
		res.Algorithm = name
		res.Elapsed = time.Since(start)
		if sink := opts.Events; sink != nil {
			sink.Event(events.Event{Kind: events.RunEnd, Algorithm: name, Iteration: -1, N: res.Triangles, Elapsed: res.Elapsed})
		}
	}
	return res, err
}
