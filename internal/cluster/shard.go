package cluster

import (
	"context"
	"fmt"
	"sync"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// ShardRunnerName is the engine registry name of the 2D shard-pair
// runner. An agent optd executes shard tasks by submitting ordinary jobs
// with this algorithm plus the ShardGrid/ShardI/ShardJ options, so the
// whole per-node substrate — admission, page budget, SSE, result cache —
// applies to distributed tasks unchanged.
const ShardRunnerName = "Shard2D"

// shardRunner executes one block-pair task of the 2D decomposition over a
// slotted-page store: it loads the vertex records of blocks I and J
// through the device in budget-bounded chunks and runs the edge iterator
// over base edges (u ∈ block I, v ∈ block J, u < v). With the default
// ShardGrid of 0 (treated as 1×1) the single task (0, 0) is a full count,
// which is what the differential sweep exercises.
type shardRunner struct{}

func init() {
	engine.Register(engine.Info{Name: ShardRunnerName, Shards: true}, shardRunner{})
}

// Run implements engine.Runner: the block loads read base through the
// run's latency model, and the device reports their pages.
func (shardRunner) Run(ctx context.Context, st *storage.Store, base ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	dim := opts.ShardGrid
	if dim == 0 {
		dim = 1
	}
	grid, err := NewGrid(dim, st.NumVertices)
	if err != nil {
		return nil, err
	}
	mx := metrics.NewCollector()
	sink := events.Tee(mx, opts.Events)
	dev := ssd.NewSyncDevice(base, ssd.AsyncOptions{Latency: opts.Latency, Context: ctx, Events: sink})
	var ops int64
	_, err = CountShard(ctx, st, dev, grid, Shard{I: opts.ShardI, J: opts.ShardJ}, opts.MemoryPages, sink, &ops)
	res := engine.NewResult(mx)
	res.IntersectOps = ops
	if err != nil {
		return res, err
	}
	res.Iterations = 1
	return res, nil
}

// blockRecs holds n≻(v) of every vertex of one block — all the edge
// iterator reads of a record — as consecutive runs of one id arena:
// n≻(v) is ids[off[v-lo]:off[v-lo+1]].
type blockRecs struct {
	lo, hi uint32
	off    []int
	ids    []uint32
}

func (b *blockRecs) of(v uint32) []uint32 {
	i := v - b.lo
	return b.ids[b.off[i]:b.off[i+1]:b.off[i+1]]
}

// scanners holds the storage.Scanner a block load reads through: its read
// buffer, records and neighbor arena carry over from task to task, so an
// agent's warm task allocates little more than its blocks' id arenas.
var scanners = sync.Pool{New: func() any { return new(storage.Scanner) }}

// CountShard counts the triangles owned by one block-pair task of grid
// over the store: triangles whose base edge (u, v), u < v, has
// block(u) = shard.I and block(v) = shard.J. memPages bounds the pages a
// single device read may cover (0 selects a small default); dev accounts
// the pages read; sink (may be nil) receives TrianglesFound progress; ops
// (may be nil) accumulates the Eq. 3 CPU cost. A task is its one
// iteration, so the sink gets one TrianglesFound with the count returned,
// also when cancellation stops the kernel loop early and that count is
// partial. A device error stops the load, before any triangle is counted.
func CountShard(ctx context.Context, st *storage.Store, dev *ssd.SyncDevice, grid Grid, shard Shard, memPages int, sink events.Sink, ops *int64) (int64, error) {
	if shard.I < 0 || shard.J < shard.I || shard.J >= grid.Dim {
		return 0, fmt.Errorf("cluster: shard (%d, %d) outside 0 ≤ i ≤ j < %d", shard.I, shard.J, grid.Dim)
	}
	if grid.N != st.NumVertices {
		return 0, fmt.Errorf("cluster: grid over %d vertices, store has %d", grid.N, st.NumVertices)
	}
	chunk := max(memPages/2, 1)
	sc := scanners.Get().(*storage.Scanner)
	blockI, err := loadBlock(ctx, st, dev, grid, shard.I, chunk, sc)
	blockJ := blockI
	if err == nil && shard.J != shard.I {
		blockJ, err = loadBlock(ctx, st, dev, grid, shard.J, chunk, sc)
	}
	scanners.Put(sc)
	if err != nil {
		return 0, err
	}

	// The engine's edge kernel, record by record: u's partners in block J
	// are one contiguous run of n≻(u), and each pair intersects n≻(v) with
	// what follows v in n≻(u) — probed when the run is long enough to pay
	// for a set (intersect.ProbePays), merged otherwise.
	var probe intersect.Prober
	var total int64
	for u := blockI.lo; u < blockI.hi; u++ {
		if err = ctx.Err(); err != nil {
			break
		}
		nsU := blockI.of(u)
		first := intersect.LowerBound(nsU, blockJ.lo)
		partners := nsU[first : first+intersect.LowerBound(nsU[first:], blockJ.hi)]
		set := probe.Fix(nsU, len(partners), st.NumVertices)
		for i, v := range partners {
			rest, nsV := nsU[first+i+1:], blockJ.of(v)
			total += int64(intersect.AdaptiveBitmapCount(nsV, rest, set))
			if ops != nil {
				*ops += intersect.MinCost(rest, nsV)
			}
		}
		intersect.Unfix(set, nsU)
	}
	if total > 0 && sink != nil {
		sink.Event(events.Event{Kind: events.TrianglesFound, Algorithm: ShardRunnerName, N: total})
	}
	return total, err
}

// loadBlock reads and decodes the vertex records of grid block i through
// sc, in spans of at most chunk pages that end at the block's last record.
// Only n≻(v) of the block's vertices is copied out, into one arena sized by
// their successor counts.
func loadBlock(ctx context.Context, st *storage.Store, dev *ssd.SyncDevice, grid Grid, i, chunk int, sc *storage.Scanner) (*blockRecs, error) {
	lo, hi := grid.Range(i)
	b := &blockRecs{lo: lo, hi: hi, off: make([]int, hi-lo+1)}
	if lo >= hi {
		return b, nil
	}
	succ := 0
	for v := lo; v < hi; v++ {
		succ += st.SuccOf(v)
	}
	b.ids = make([]uint32, 0, succ)
	last := st.FirstPageOf(hi-1) + uint32(st.SpanOf(hi-1))
	// DecodeAt holds each span to the pages read, and the spans follow one
	// another, so the block's vertices arrive in order, each once.
	err := sc.Scan(ctx, st, dev, st.FirstPageOf(lo), last, chunk, func(recs []storage.VertexRec) error {
		for _, r := range recs {
			if r.ID < lo {
				continue
			}
			if r.ID >= hi {
				break
			}
			b.ids = append(b.ids, st.Successors(r)...)
			b.off[r.ID-lo+1] = len(b.ids)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: loading block %d: %w", i, err)
	}
	return b, nil
}
