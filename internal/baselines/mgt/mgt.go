// Package mgt implements the MGT baseline (Hu, Tao, Chung — "Massive graph
// triangulation", SIGMOD'13) as characterised in §3.5 of the OPT paper: an
// instance of the framework in which (1) no work happens in the internal
// triangulation, (2) every vertex is an external candidate, (3) the
// vertex-iterator external kernel is used, and (4) all I/O is synchronous.
//
// Per memory block B (the buffer's worth of adjacency lists), MGT scans the
// entire graph once and, for every scanned record u, checks the ordered
// pairs (v, w) ∈ n≻(u) × n≻(u) with n(v) ∈ B against the in-memory edges.
// A triangle Δuvw is found in exactly the block that holds n(v), so the
// I/O cost is (1 + ⌈P(G)/m⌉)·cP(G) reads and zero writes (Eq. 7).
package mgt

import (
	"context"
	"fmt"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// scanSpan is the number of pages fetched per synchronous scan read: MGT
// streams the graph sequentially, so the scan reads ahead in runs the way
// any sequential reader does. It is the span every MGT number in
// EXPERIMENTS.md was measured with, and one simulated per-read latency is
// paid per span, not per page.
const scanSpan = 16

// runner is MGT's registered engine.Runner.
type runner struct{}

func init() {
	engine.Register(engine.Info{Name: "MGT", ListsTriangles: true}, runner{})
}

// Run implements engine.Runner: MGT over the store using base for page I/O,
// one block of MemoryPages at a time. When ctx is done the run stops at the
// next block or scan read and returns the partial Result accumulated so far
// alongside an error satisfying errors.Is(err, ctx.Err()).
func (runner) Run(ctx context.Context, st *storage.Store, base ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	mx := metrics.NewCollector()
	sink := events.Tee(mx, opts.Events)
	dev := ssd.NewSyncDevice(base, ssd.AsyncOptions{
		Latency: opts.Latency,
		Context: ctx,
		Events:  sink,
	})

	emit := func(e events.Event) {
		e.Algorithm = "MGT"
		sink.Event(e)
	}
	blocks := 0
	var ops int64
	finish := func(err error) (*engine.Result, error) {
		res := engine.NewResult(mx)
		res.Iterations, res.IntersectOps = blocks, ops
		return res, err
	}
	var sc storage.Scanner
	var lo uint32
	for lo < st.NumPages {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		count := st.AlignedRange(lo, max(1, min(opts.MemoryPages, int(st.NumPages-lo))))
		hi := lo + uint32(count)

		blkStart := time.Now()
		emit(events.Event{Kind: events.IterationStart, Iteration: blocks, N: int64(count)})
		block, err := loadBlock(st, dev, lo, hi)
		if err != nil {
			return finish(err)
		}
		t, o, err := scan(ctx, st, dev, &sc, block, opts.OnTriangles)
		ops += o
		if t > 0 {
			emit(events.Event{Kind: events.TrianglesFound, Iteration: blocks, N: t})
		}
		emit(events.Event{Kind: events.IterationEnd, Iteration: blocks, N: t, Elapsed: time.Since(blkStart)})
		if err != nil {
			return finish(err)
		}
		blocks++
		lo = hi
	}
	return finish(nil)
}

// block holds the adjacency lists of one memory block.
type block struct {
	adj    map[uint32][]uint32
	lo, hi uint32 // page range, for the constant-time residency test
	st     *storage.Store
}

func (b *block) contains(v uint32) bool {
	p := b.st.FirstPageOf(v)
	return p >= b.lo && p < b.hi
}

func loadBlock(st *storage.Store, dev *ssd.SyncDevice, lo, hi uint32) (*block, error) {
	data, err := dev.ReadPages(lo, int(hi-lo))
	if err != nil {
		return nil, fmt.Errorf("mgt: loading block [%d, %d): %w", lo, hi, err)
	}
	recs, _, err := st.DecodeAt(nil, nil, lo, data)
	if err != nil {
		return nil, fmt.Errorf("mgt: decoding block [%d, %d): %w", lo, hi, err)
	}
	b := &block{adj: make(map[uint32][]uint32, len(recs)), lo: lo, hi: hi, st: st}
	for _, r := range recs {
		b.adj[r.ID] = r.Adj
	}
	return b, nil
}

// scan streams the whole graph synchronously through sc and applies the
// vertex-iterator pair kernel against the block, listing what it finds to
// out when out is non-nil. It returns the triangles and the Eq. 3 cost of
// the pairs tested; on an error the count is of the triangles already
// listed. MGT re-reads every page of the graph per block, including
// the block's own pages: the strict (1 + ⌈P/m⌉)·P(G) behaviour of Eq. 7.
func scan(ctx context.Context, st *storage.Store, dev *ssd.SyncDevice, sc *storage.Scanner, b *block, out func(u, v uint32, ws []uint32)) (total, ops int64, err error) {
	var ws []uint32
	err = sc.Scan(ctx, st, dev, 0, st.NumPages, scanSpan, func(recs []storage.VertexRec) error {
		for _, u := range recs {
			ns := st.Successors(u)
			for i, v := range ns {
				if !b.contains(v) {
					continue
				}
				rest := ns[i+1:]
				if len(rest) == 0 {
					continue
				}
				ops += int64(len(rest))
				adjV := b.adj[v]
				ws = ws[:0]
				for _, w := range rest {
					if intersect.Contains(adjV, w) {
						ws = append(ws, w)
					}
				}
				if len(ws) > 0 {
					total += int64(len(ws))
					if out != nil {
						out(u.ID, v, ws)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return total, ops, fmt.Errorf("mgt: scanning: %w", err)
	}
	return total, ops, nil
}
