package opt

import (
	"context"
	"fmt"
	"time"

	"github.com/optlab/opt/internal/baselines/inmem"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"

	// Algorithm packages register their engine.Runner in init; the blank
	// imports make every registry name reachable from the public API.
	_ "github.com/optlab/opt/internal/baselines/cc"
	_ "github.com/optlab/opt/internal/baselines/gchi"
	_ "github.com/optlab/opt/internal/baselines/mgt"
	_ "github.com/optlab/opt/internal/cluster"
	_ "github.com/optlab/opt/internal/core"
)

// Store is an on-disk graph in the paper's slotted-page representation
// (§3.2): records in id order, oversized adjacency lists in page runs, with
// memory-resident vertex and page directories.
type Store struct {
	st *storage.Store
}

// BuildStore writes g to path with the raw page codec. pageSize 0 selects
// the 8 KiB default.
func BuildStore(path string, g *Graph, pageSize int) (*Store, error) {
	return BuildStoreCodec(path, g, pageSize, CodecRaw)
}

// BuildStoreCodec is BuildStore with an explicit page codec: CodecRaw keeps
// fixed 4-byte neighbors, CodecDeltaVarint stores sorted adjacency lists as
// varint-encoded deltas, shrinking P(G) — the page count every external
// algorithm's I/O cost is measured in.
func BuildStoreCodec(path string, g *Graph, pageSize int, codec string) (*Store, error) {
	st, err := storage.BuildFileCodec(path, g.internal(), pageSize, codec)
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// OpenStore opens a store built by BuildStore.
func OpenStore(path string) (*Store, error) {
	st, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// NumVertices returns |V|.
func (s *Store) NumVertices() int { return s.st.NumVertices }

// NumEdges returns |E|.
func (s *Store) NumEdges() int64 { return s.st.NumEdges }

// NumPages returns P(G), the number of data pages.
func (s *Store) NumPages() int { return int(s.st.NumPages) }

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int { return s.st.PageSize }

// Path returns the store file's path.
func (s *Store) Path() string { return s.st.Path }

// Codec returns the name of the page codec the store was built with.
func (s *Store) Codec() string { return s.st.CodecName() }

// Version returns the store file format version.
func (s *Store) Version() int { return s.st.Version() }

// Page codec names for BuildStoreCodec and Options.Codec.
const (
	// CodecRaw stores neighbors as fixed 4-byte values (the v1 format).
	CodecRaw = storage.CodecRaw
	// CodecDeltaVarint stores sorted adjacency lists as varint deltas.
	CodecDeltaVarint = storage.CodecDeltaVarint
)

// Codecs returns the names of every available page codec.
func Codecs() []string { return storage.Codecs() }

// Device backend names for Options.Backend.
const (
	// BackendPortable is the worker-pool os.File device (default).
	BackendPortable = string(ssd.BackendPortable)
	// BackendNative is the Linux io_uring/preadv device with O_DIRECT where
	// the store layout permits; the portable device off Linux.
	BackendNative = string(ssd.BackendNative)
	// BackendAuto selects native where the build supports it.
	BackendAuto = string(ssd.BackendAuto)
)

// Backends returns the accepted Options.Backend names.
func Backends() []string { return ssd.Backends() }

// NativeBackendAvailable reports whether this build carries the native
// Linux I/O backend.
func NativeBackendAvailable() bool { return ssd.NativeAvailable() }

// Algorithm selects a triangulation method.
type Algorithm int

// Available algorithms. OPT and OPTSerial are the paper's contribution;
// the rest are the comparison methods of §5.
const (
	// OPT is the fully overlapped, parallel framework (§3.2–§3.4).
	OPT Algorithm = iota
	// OPTSerial disables the macro-level overlap (§3.3) — single-core OPT
	// with asynchronous external I/O only.
	OPTSerial
	// MGT is Hu et al.'s read-only disk method (SIGMOD'13), an OPT instance
	// with synchronous I/O and no internal triangulation (§3.5, Eq. 7).
	MGT
	// CCSeq is the Chu–Cheng iterative method with sequential partitions.
	CCSeq
	// CCDS is the Chu–Cheng method with the degree-set heuristic.
	CCDS
	// GraphChiTri is GraphChi's triangle-counting application (counting
	// only).
	GraphChiTri
	// Shard2D is one block-pair task of the distributed 2D decomposition
	// (DESIGN.md §15): with ShardGrid 0 it is a full single-task count; with
	// a grid it counts only the triangles whose base edge spans blocks
	// (ShardI, ShardJ). Agent optds run distributed tasks through it.
	Shard2D
)

// String implements fmt.Stringer. The spelling doubles as the execution
// engine's registry key.
func (a Algorithm) String() string {
	switch a {
	case OPT:
		return "OPT"
	case OPTSerial:
		return "OPT_serial"
	case MGT:
		return "MGT"
	case CCSeq:
		return "CC-Seq"
	case CCDS:
		return "CC-DS"
	case GraphChiTri:
		return "GraphChi-Tri"
	case Shard2D:
		return "Shard2D"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms returns the registry names of every available algorithm.
func Algorithms() []string { return engine.Names() }

// IteratorModel selects the pluggable iterator model for OPT/OPTSerial.
type IteratorModel = engine.Model

// Iterator models (§2.2, §3.5).
const (
	// EdgeIteratorModel intersects n≻(u) ∩ n≻(v) per edge — the faster
	// model, used by default (§5.1).
	EdgeIteratorModel = engine.ModelEdge
	// VertexIteratorModel checks pairs (v, w) ∈ n≻(u)² against E.
	VertexIteratorModel = engine.ModelVertex
	// MGTInstanceModel is the §3.5 degenerate instantiation of the
	// framework (no internal triangulation, every adjacent vertex an
	// external candidate) — included to demonstrate the framework's
	// genericity. Prefer the MGT algorithm for the faithful baseline.
	MGTInstanceModel = engine.ModelMGTInstance
)

// DeviceLatency simulates FlashSSD latency so the I/O-to-CPU cost ratio is
// controllable regardless of the host's real storage (DESIGN.md §3):
// PerRead is the fixed cost per read request, PerPage the streaming cost
// per page.
type DeviceLatency = ssd.Latency

// Event is one progress observation emitted while a run executes: run and
// iteration boundaries, page I/O, triangles found, thread morphing.
type Event = events.Event

// EventKind identifies what an Event reports.
type EventKind = events.Kind

// Event kinds, re-exported for OnEvent consumers. They are vars because
// events.Kind has no constants: its declared values are the only kinds.
// Read them; never assign to them.
var (
	EventRunStart       = events.RunStart
	EventRunEnd         = events.RunEnd
	EventIterationStart = events.IterationStart
	EventIterationEnd   = events.IterationEnd
	EventPagesRead      = events.PagesRead
	EventPagesWritten   = events.PagesWritten
	EventTrianglesFound = events.TrianglesFound
	EventMorph          = events.Morph
	// EventTaskDone is emitted only with CollectIterStats: one per chunk
	// task of OPT (Iteration = the outer iteration) or streamed record of
	// GraphChiTri (Iteration = its batch), N the task class (0 internal,
	// 1 external), Elapsed its measured duration.
	EventTaskDone = events.TaskDone
	// Distributed-layer kinds, emitted by the optd coordinator while a
	// sharded job progresses.
	EventShardDispatched = events.ShardDispatched
	EventShardRetried    = events.ShardRetried
	EventShardMerged     = events.ShardMerged
)

// Options configures Triangulate.
type Options struct {
	// Algorithm defaults to OPT.
	Algorithm Algorithm
	// Model defaults to EdgeIteratorModel (OPT/OPTSerial only).
	Model IteratorModel
	// Threads is the worker count for parallel algorithms (default 2 for
	// OPT, 1 for GraphChiTri). Must be non-negative.
	Threads int
	// MemoryPages is the buffer budget m in pages. When 0,
	// MemoryFraction applies. Must be non-negative.
	MemoryPages int
	// MemoryFraction sets the budget as a fraction of the store size (the
	// paper sweeps 5%–25%; 15% is its default). 0 selects the default; any
	// other value must lie in (0, 1].
	MemoryFraction float64
	// QueueDepth is the FlashSSD channel parallelism for OPT (default 8).
	// Must be non-negative.
	QueueDepth int
	// Latency simulates device latency on every page read and write.
	Latency DeviceLatency
	// DisableMorphing turns off thread morphing (OPT only; Figure 4).
	DisableMorphing bool
	// OnTriangles, when non-nil, receives every triangle in the nested
	// representation ⟨u, v, {w…}⟩. It must be safe for concurrent calls.
	// Setting it with GraphChiTri is an error: that method only counts.
	OnTriangles func(u, v uint32, ws []uint32)
	// OnEvent, when non-nil, receives progress events. It must be safe for
	// concurrent calls and must not block: emitters sit on hot paths.
	OnEvent func(Event)
	// CollectIterStats records per-iteration timings (OPT/OPTSerial) and,
	// with OnEvent set, adds one EventTaskDone per task (OPT/GraphChiTri).
	CollectIterStats bool
	// TempDir is used by CCSeq/CCDS/GraphChiTri for remainder files.
	TempDir string
	// Codec, when non-empty, requires the store to have been built with the
	// named page codec (see Codecs); the run is rejected on a mismatch.
	Codec string
	// Backend selects how the store device reaches the disk: BackendPortable
	// (the worker-pool os.File device), BackendNative (Linux io_uring/preadv
	// with O_DIRECT where the layout permits), or BackendAuto (native where
	// the build supports it). Empty resolves through the OPT_BACKEND
	// environment variable and then defaults to portable. Off Linux the
	// native and auto backends open the portable device.
	Backend string
	// ShardGrid, ShardI, ShardJ restrict a shard-aware algorithm (Shard2D)
	// to one block-pair task of the distributed 2D decomposition:
	// 0 ≤ ShardI ≤ ShardJ < ShardGrid. All zero disables sharding.
	ShardGrid int
	ShardI    int
	ShardJ    int
}

// IterationStat mirrors engine.IterationStat for the public API.
type IterationStat = engine.IterationStat

// Result reports a Triangulate run.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Triangles is the exact triangle count (so far, on a partial result).
	Triangles int64
	// Elapsed is the wall-clock time, including simulated latency.
	Elapsed time.Duration
	// Iterations is the number of completed outer-loop iterations/blocks.
	Iterations int
	// PagesRead and PagesWritten are the I/O volumes in pages.
	PagesRead, PagesWritten int64
	// ReusedPages is the Δin buffered-page credit (OPT only).
	ReusedPages int64
	// IntersectOps is the Eq. 3 min-model CPU cost.
	IntersectOps int64
	// IterStats is populated when Options.CollectIterStats is set.
	IterStats []IterationStat
}

// Triangulate runs the selected disk-based triangulation algorithm over the
// store. It is TriangulateContext with a background context.
func Triangulate(s *Store, opts Options) (*Result, error) {
	return TriangulateContext(context.Background(), s, opts)
}

// TriangulateContext runs the selected algorithm under ctx. Every algorithm
// dispatches through the execution engine's runner registry — one code
// path validates the options, resolves the memory budget, and invokes the
// registered implementation. When ctx is cancelled the run stops within
// one iteration and returns the partial Result accumulated so far together
// with an error satisfying errors.Is(err, ctx.Err()); no goroutines are
// leaked.
func TriangulateContext(ctx context.Context, s *Store, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var sink events.Sink
	if opts.OnEvent != nil {
		sink = events.Func(opts.OnEvent)
	}
	eres, err := engine.RunStore(ctx, opts.Algorithm.String(), s.st, engine.Options{
		Model:            opts.Model,
		Threads:          opts.Threads,
		MemoryPages:      opts.MemoryPages,
		MemoryFraction:   opts.MemoryFraction,
		QueueDepth:       opts.QueueDepth,
		Latency:          opts.Latency,
		DisableMorphing:  opts.DisableMorphing,
		OnTriangles:      opts.OnTriangles,
		CollectIterStats: opts.CollectIterStats,
		TempDir:          opts.TempDir,
		Codec:            opts.Codec,
		Backend:          opts.Backend,
		ShardGrid:        opts.ShardGrid,
		ShardI:           opts.ShardI,
		ShardJ:           opts.ShardJ,
		Events:           sink,
	}, nil)
	if eres == nil {
		return nil, err
	}
	return &Result{
		Algorithm:    opts.Algorithm,
		Triangles:    eres.Triangles,
		Elapsed:      eres.Elapsed,
		Iterations:   eres.Iterations,
		PagesRead:    eres.PagesRead,
		PagesWritten: eres.PagesWritten,
		ReusedPages:  eres.ReusedPages,
		IntersectOps: eres.IntersectOps,
		IterStats:    eres.IterStats,
	}, err
}

// CountInMemory counts triangles with the in-memory baselines of §2.2 —
// useful as an oracle and for the Figure 3b comparison. method is one of
// "edge", "vertex", "ayz".
func CountInMemory(g *Graph, method string) (int64, error) {
	switch method {
	case "edge", "":
		return inmem.EdgeIteratorCount(g.internal(), nil, nil), nil
	case "vertex":
		return inmem.VertexIteratorCount(g.internal(), nil, nil), nil
	case "ayz":
		return inmem.AYZCount(g.internal(), nil), nil
	default:
		return 0, fmt.Errorf("opt: unknown in-memory method %q (want edge, vertex or ayz)", method)
	}
}

// BuildStoreStreaming builds a store directly from a text edge-list file
// with bounded memory: the edge list never resides in RAM — it is
// externally sorted through temporary run files — so graphs far larger
// than memory can be prepared, per the paper's billion-scale-on-one-PC
// premise. Only the O(|V|) directories and the sorter's run buffer are
// memory resident. The degree-based vertex ordering is applied using
// first-pass degree counts. pageSize 0 selects the 8 KiB default.
func BuildStoreStreaming(storePath, edgeListPath string, pageSize int) (*Store, error) {
	return BuildStoreStreamingContext(context.Background(), storePath, edgeListPath, pageSize)
}

// BuildStoreStreamingContext is BuildStoreStreaming with cancellation: the
// two edge-list passes and the external sort check ctx periodically, so
// preparing a billion-edge graph can be interrupted.
func BuildStoreStreamingContext(ctx context.Context, storePath, edgeListPath string, pageSize int) (*Store, error) {
	return BuildStoreStreamingCodecContext(ctx, storePath, edgeListPath, pageSize, CodecRaw)
}

// BuildStoreStreamingCodecContext is BuildStoreStreamingContext with an
// explicit page codec (see Codecs).
func BuildStoreStreamingCodecContext(ctx context.Context, storePath, edgeListPath string, pageSize int, codec string) (*Store, error) {
	st, err := storage.BuildFileStreamingContext(ctx, storePath, storage.EdgeListFileScanner{Path: edgeListPath},
		storage.StreamBuildOptions{PageSize: pageSize, DegreeOrder: true, Codec: codec})
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}
