package cluster

import (
	"context"
	"fmt"

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
	dev := ssd.NewSyncDevice(base, ssd.AsyncOptions{Latency: opts.Latency, Metrics: mx, Context: ctx, Events: opts.Events})
	res := &engine.Result{}
	count, err := CountShard(ctx, st, dev, grid, Shard{I: opts.ShardI, J: opts.ShardJ}, opts.MemoryPages, opts.Events, res)
	res.Triangles, res.PagesRead = count, mx.PagesRead()
	if err != nil {
		return res, err
	}
	res.Iterations = 1
	return res, nil
}

// blockRecs holds n≻(v) of every vertex of one block — all the edge
// iterator reads of a record — indexed by v - lo. Entries outside the block
// are nil.
type blockRecs struct {
	lo, hi uint32
	succ   [][]uint32
}

func (b *blockRecs) of(v uint32) []uint32 { return b.succ[v-b.lo] }

// CountShard counts the triangles owned by one block-pair task of grid
// over the store: triangles whose base edge (u, v), u < v, has
// block(u) = shard.I and block(v) = shard.J. memPages bounds the pages a
// single device read may cover (0 selects a small default); dev accounts
// the pages read; sink (may be nil) receives TrianglesFound progress; res
// (may be nil) accumulates the Eq. 3 CPU cost. On cancellation or a device
// error the count so far is returned alongside the error.
func CountShard(ctx context.Context, st *storage.Store, dev *ssd.SyncDevice, grid Grid, shard Shard, memPages int, sink events.Sink, res *engine.Result) (int64, error) {
	if shard.I < 0 || shard.J < shard.I || shard.J >= grid.Dim {
		return 0, fmt.Errorf("cluster: shard (%d, %d) outside 0 ≤ i ≤ j < %d", shard.I, shard.J, grid.Dim)
	}
	if grid.N != st.NumVertices {
		return 0, fmt.Errorf("cluster: grid over %d vertices, store has %d", grid.N, st.NumVertices)
	}
	chunk := memPages / 2
	if chunk < 1 {
		chunk = 1
	}
	blockI, err := loadBlock(ctx, st, dev, grid, shard.I, chunk)
	if err != nil {
		return 0, err
	}
	blockJ := blockI
	if shard.J != shard.I {
		blockJ, err = loadBlock(ctx, st, dev, grid, shard.J, chunk)
		if err != nil {
			return 0, err
		}
	}

	// The engine's edge kernel, record by record: u's partners in block J
	// are one contiguous run of n≻(u), and each pair intersects n≻(v) with
	// what follows v in n≻(u) — probed when the run is long enough to pay
	// for a set (intersect.ProbePays), merged otherwise.
	var probe intersect.Prober
	var total int64
	for u := blockI.lo; u < blockI.hi; u++ {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		nsU := blockI.of(u)
		first := intersect.LowerBound(nsU, blockJ.lo)
		partners := nsU[first : first+intersect.LowerBound(nsU[first:], blockJ.hi)]
		set := probe.Fix(nsU, len(partners), st.NumVertices)
		var row int64
		for i, v := range partners {
			rest, nsV := nsU[first+i+1:], blockJ.of(v)
			row += int64(intersect.AdaptiveBitmapCount(nsV, rest, set))
			if res != nil {
				res.IntersectOps += intersect.MinCost(rest, nsV)
			}
		}
		intersect.Unfix(set, nsU)
		if row > 0 {
			total += row
			if sink != nil {
				sink.Event(events.Event{Kind: events.TrianglesFound, Algorithm: ShardRunnerName, N: row})
			}
		}
	}
	return total, nil
}

// loadBlock reads and decodes the vertex records of grid block i, issuing
// device reads of at most chunk pages (extended to record-run boundaries).
func loadBlock(ctx context.Context, st *storage.Store, dev *ssd.SyncDevice, grid Grid, i, chunk int) (*blockRecs, error) {
	lo, hi := grid.Range(i)
	b := &blockRecs{lo: lo, hi: hi, succ: make([][]uint32, hi-lo)}
	if lo >= hi {
		return b, nil
	}
	p := st.FirstPageOf(lo)
	for p < st.NumPages && st.FirstRecordOf(p) < hi {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := st.AlignedRange(p, chunk)
		data, err := dev.ReadPages(p, n)
		if err != nil {
			return nil, fmt.Errorf("cluster: reading pages [%d, %d) of block %d: %w", p, p+uint32(n), i, err)
		}
		recs, err := st.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("cluster: decoding pages [%d, %d) of block %d: %w", p, p+uint32(n), i, err)
		}
		for _, r := range recs {
			if r.ID >= lo && r.ID < hi {
				b.succ[r.ID-lo] = r.Adj[intersect.UpperBound(r.Adj, r.ID):]
			}
		}
		p += uint32(n)
	}
	return b, nil
}
