// Package gchi reproduces the behaviour of GraphChi's triangle-counting
// application (Kyrola et al., OSDI'12) as characterised in §4 of the OPT
// paper: an additional memory buffer pivots a part of the graph; at every
// odd iteration the pivot block is loaded and previously processed edges
// are removed (a full read plus a full write of the remaining graph), and
// at every even iteration triangles are identified by intersecting the
// pivot's adjacency lists against all adjacency lists (another full read).
// The enforced sequential-order processing limits its parallel fraction:
// only the per-batch intersection work is parallelised, with a barrier
// between batches, which is why its speed-up saturates below 2.5 in
// Figure 6 / Table 5.
//
// GraphChi-Tri is a counting method — it does not list triangles (§5.2).
package gchi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/optlab/opt/internal/baselines/cc"
	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// batchRecords is the number of streamed records per parallel batch: the
// sub-interval whose processing order is enforced.
const batchRecords = 256

// runner is GraphChi-Tri's registered engine.Runner. It is a counting
// method, so its Info advertises ListsTriangles=false and the engine rejects
// Options.OnTriangles before dispatch.
type runner struct{}

func init() {
	engine.Register(engine.Info{Name: "GraphChi-Tri", Parallel: true}, runner{})
}

// Run implements engine.Runner: GraphChi-Tri over the store, using base for
// the initial read and TempDir (default: the store's directory) for the
// working files. Half of MemoryPages forms the pivot buffer (the
// "additional memory buffer" of §4), and Threads goroutines (default 1,
// GraphChi-Tri_serial) share each batch's intersection work. With
// CollectIterStats and Events set, every streamed record of the batch
// region is timed and reported as one events.TaskDone stamped with its
// batch. When ctx is done the run stops within one record of stream I/O and
// returns the partial Result accumulated over completed pivot blocks
// alongside an error satisfying errors.Is(err, ctx.Err()).
func (runner) Run(ctx context.Context, st *storage.Store, base ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	threads := max(opts.Threads, 1)
	tempDir := opts.TempDir
	if tempDir == "" {
		tempDir = filepath.Dir(st.Path)
	}
	dir, err := os.MkdirTemp(tempDir, "gchi-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	mx := metrics.NewCollector()
	cm := diskio.CostModel{
		PageSize: st.PageSize, Latency: opts.Latency,
		Context: ctx, Events: events.Tee(mx, opts.Events),
	}
	emit := func(e events.Event) {
		e.Algorithm = "GraphChi-Tri"
		cm.Events.Event(e)
	}
	iterations := 0
	var ops int64
	finish := func(err error) (*engine.Result, error) {
		res := engine.NewResult(mx)
		res.Iterations, res.IntersectOps = iterations, ops
		return res, err
	}
	cur := filepath.Join(dir, "work-0.ccg")
	if err := cc.ConvertStore(ctx, st, base, cur, nil, cm); err != nil {
		return finish(err)
	}

	pivotBytes := max(int64(opts.MemoryPages)*int64(st.PageSize)/2, int64(st.PageSize))
	// onRecord, set only when recording, reports one record of the batch
	// region; batches counts the barriers passed so far, run-wide.
	var onRecord func(batch int, d time.Duration)
	if opts.CollectIterStats && opts.Events != nil {
		onRecord = func(batch int, d time.Duration) {
			emit(events.Event{Kind: events.TaskDone, Iteration: batch, N: events.TaskInternal, Elapsed: d})
		}
	}
	batches := 0
	for iter := 1; ; iter++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if iter > st.NumVertices+2 {
			return finish(fmt.Errorf("gchi: no progress after %d iterations", iter))
		}
		itStart := time.Now()
		emit(events.Event{Kind: events.IterationStart, Iteration: iter - 1})
		// Even iteration: identify triangles against the pivot block.
		pivot, err := loadPivot(cur, pivotBytes, cm)
		if err != nil {
			return finish(err)
		}
		tris, o, n, err := identify(cur, pivot, cm, threads, batches, onRecord)
		ops += o
		batches += n
		if tris > 0 {
			emit(events.Event{Kind: events.TrianglesFound, Iteration: iter - 1, N: tris})
		}
		if err != nil {
			emit(events.Event{Kind: events.IterationEnd, Iteration: iter - 1, N: tris, Elapsed: time.Since(itStart)})
			return finish(err)
		}
		// Odd iteration: remove processed edges, rewriting the remainder.
		next := filepath.Join(dir, fmt.Sprintf("work-%d.ccg", iter))
		edgesLeft, err := shrink(cur, next, pivot, cm)
		emit(events.Event{Kind: events.IterationEnd, Iteration: iter - 1, N: tris, Elapsed: time.Since(itStart)})
		if err != nil {
			return finish(err)
		}
		os.Remove(cur)
		cur = next
		iterations++
		if edgesLeft == 0 {
			return finish(nil)
		}
	}
}

// loadPivot reads the pivot block (the id-order prefix) into memory,
// charging a partial pass over the file.
func loadPivot(path string, pivotBytes int64, cm diskio.CostModel) (map[uint32][]uint32, error) {
	r, err := diskio.NewStreamReader(path, cm)
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.Close() }() // read-only pass; nothing to lose on close
	pivot := make(map[uint32][]uint32)
	var used int64
	for used < pivotBytes {
		id, adj, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		pivot[id] = adj
		used += int64(8 + 4*len(adj))
	}
	return pivot, nil
}

// rec is one streamed record.
type rec struct {
	id  uint32
	adj []uint32
}

// countRecord is the per-record kernel: for the streamed record v, every
// u ∈ n≺(v) ∩ pivot contributes |n≻(u) ∩ n≻(v)| triangles, at the Eq. 3
// cost ops. buf is the calling thread's scratch, returned for reuse.
func countRecord(pivot map[uint32][]uint32, buf []uint32, v rec) (tris, ops int64, _ []uint32) {
	nsV := nsucc(v.adj, v.id)
	for _, u := range npred(v.adj, v.id) {
		adjU, ok := pivot[u]
		if !ok {
			continue
		}
		nsU := nsucc(adjU, u)
		ops += intersect.MinCost(nsU, nsV)
		buf = intersect.Adaptive(buf[:0], nsU, nsV)
		tris += int64(len(buf))
	}
	return tris, ops, buf
}

// identify streams the whole file and counts triangles whose lowest vertex
// is in the pivot, one countRecord per streamed record. Batches of records
// are processed by threads goroutines with a barrier between batches (the
// enforced sequential order); it returns the count, the Eq. 3 cost of the
// batches processed and their number. With onRecord set, every record is
// timed and reported under its batch's index, counted from firstBatch.
func identify(path string, pivot map[uint32][]uint32, cm diskio.CostModel, threads, firstBatch int, onRecord func(batch int, d time.Duration)) (tris, ops int64, batches int, err error) {
	r, err := diskio.NewStreamReader(path, cm)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = r.Close() }() // read-only pass; nothing to lose on close

	batch := make([]rec, 0, batchRecords)
	partial := make([]struct{ tris, ops int64 }, threads)

	processBatch := func() {
		if len(batch) == 0 {
			return
		}
		index := firstBatch + batches
		batches++
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []uint32
				local := partial[t]
				for i := t; i < len(batch); i += threads {
					var start time.Time
					if onRecord != nil {
						start = time.Now()
					}
					var n, o int64
					n, o, buf = countRecord(pivot, buf, batch[i])
					local.tris, local.ops = local.tris+n, local.ops+o
					if onRecord != nil {
						onRecord(index, time.Since(start))
					}
				}
				partial[t] = local
			}()
		}
		wg.Wait() // barrier: sequential-order enforcement between batches
		batch = batch[:0]
	}

	for {
		id, adj, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			for _, p := range partial { // the batches processed did their work
				ops += p.ops
			}
			return 0, ops, batches, err
		}
		batch = append(batch, rec{id: id, adj: adj})
		if len(batch) >= batchRecords {
			processBatch()
		}
	}
	processBatch()
	for _, p := range partial {
		tris, ops = tris+p.tris, ops+p.ops
	}
	return tris, ops, batches, nil
}

// shrink streams the whole file once more and writes the remainder with
// every pivot-incident edge removed. The writer is closed on every path,
// and a failed close fails the shrink.
func shrink(curPath, nextPath string, pivot map[uint32][]uint32, cm diskio.CostModel) (edgesLeft int64, err error) {
	r, err := diskio.NewStreamReader(curPath, cm)
	if err != nil {
		return 0, err
	}
	defer func() { _ = r.Close() }() // read-only pass; nothing to lose on close
	w, err := diskio.NewStreamWriter(nextPath, cm)
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, w.Close()) }()
	for {
		id, adj, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if _, inPivot := pivot[id]; inPivot {
			continue
		}
		kept := adj[:0]
		for _, x := range adj {
			if _, ok := pivot[x]; !ok {
				kept = append(kept, x)
			}
		}
		if len(kept) > 0 {
			if err := w.WriteRecord(id, kept); err != nil {
				return 0, err
			}
			edgesLeft += int64(len(nsucc(kept, id)))
		}
	}
	return edgesLeft, nil
}

func nsucc(adj []uint32, v uint32) []uint32 { return adj[intersect.UpperBound(adj, v):] }
func npred(adj []uint32, v uint32) []uint32 { return adj[:intersect.LowerBound(adj, v)] }
