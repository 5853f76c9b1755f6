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
	dev := ssd.NewSyncDevice(base, ssd.AsyncOptions{
		Latency: opts.Latency,
		Metrics: mx,
		Context: ctx,
		Events:  opts.Events,
	})

	emit := func(e events.Event) {
		if opts.Events != nil {
			e.Algorithm = "MGT"
			opts.Events.Event(e)
		}
	}
	blocks := 0
	finish := func(err error) (*engine.Result, error) {
		res := engine.NewResult(mx)
		res.Iterations = blocks
		return res, err
	}
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
		t, err := scan(st, dev, block, mx, opts.OnTriangles)
		mx.AddTriangles(t)
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
	recs, err := st.Decode(data)
	if err != nil {
		return nil, err
	}
	b := &block{adj: make(map[uint32][]uint32, len(recs)), lo: lo, hi: hi, st: st}
	for _, r := range recs {
		b.adj[r.ID] = r.Adj
	}
	return b, nil
}

// scan streams the whole graph synchronously and applies the
// vertex-iterator pair kernel against the block, listing what it finds to
// out when out is non-nil.
func scan(st *storage.Store, dev *ssd.SyncDevice, b *block, mx *metrics.Collector, out func(u, v uint32, ws []uint32)) (int64, error) {
	var total int64
	var ws []uint32
	var p uint32
	for p < st.NumPages {
		// MGT re-reads every page of the graph per block, including the
		// block's own pages: the strict (1 + ⌈P/m⌉)·P(G) behaviour of Eq. 7.
		count := st.AlignedRange(p, scanSpan)
		data, err := dev.ReadPages(p, count)
		if err != nil {
			return 0, fmt.Errorf("mgt: scanning pages [%d,+%d): %w", p, count, err)
		}
		recs, err := st.Decode(data)
		if err != nil {
			return 0, err
		}
		for _, u := range recs {
			ns := nsucc(u.Adj, u.ID)
			for i, v := range ns {
				if !b.contains(v) {
					continue
				}
				rest := ns[i+1:]
				if len(rest) == 0 {
					continue
				}
				mx.AddIntersect(int64(len(rest)))
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
		p += uint32(count)
	}
	return total, nil
}

func nsucc(adj []uint32, v uint32) []uint32 {
	return adj[intersect.UpperBound(adj, v):]
}
