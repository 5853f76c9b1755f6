// Package cc implements the Chu–Cheng style iterative disk-based
// triangulation baselines of §4/§5 (CC-Seq and CC-DS, from "Triangle
// listing in massive networks", KDD'11). The defining I/O behaviour — the
// reason these methods form the paper's "slow group" — is that every
// iteration reads the whole current graph AND writes the remaining edges
// back to disk, shrinking the file until no edges remain.
//
// Per iteration: a partition M of adjacency lists is loaded until the
// memory budget fills; all triangles whose lowest-ordered vertex lies in M
// are listed (intra-M edges by direct intersection, cross edges by
// streaming the rest of the file); then every edge with its lower endpoint
// in M is dropped and the remainder (isolated vertices removed) is
// rewritten.
//
// CC-Seq takes partitions in id order. CC-DS models the degree-set
// heuristic: vertices are pre-permuted so high-degree vertices come first,
// killing more edges per early iteration. Both keep the exactly-once
// counting guarantee because triangle ownership follows the processing
// order.
package cc

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Variant selects the partitioning heuristic. Each Variant is the
// engine.Runner registered under its String name.
type Variant int

// Variants.
const (
	Seq Variant = iota // sequential partitions (CC-Seq)
	DS                 // degree-set heuristic (CC-DS)
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == DS {
		return "CC-DS"
	}
	return "CC-Seq"
}

func init() {
	for _, v := range []Variant{Seq, DS} {
		engine.Register(engine.Info{Name: v.String(), ListsTriangles: true}, v)
	}
}

// Run implements engine.Runner: the variant over the store, using base for
// the initial read and TempDir (default: the store's directory) for the
// per-iteration remainder files, whose I/O is charged to the latency model
// like the store's. When ctx is done the run stops within one record of
// stream I/O and returns the partial Result accumulated over completed
// iterations alongside an error satisfying errors.Is(err, ctx.Err()).
func (v Variant) Run(ctx context.Context, st *storage.Store, base ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	tempDir := opts.TempDir
	if tempDir == "" {
		tempDir = filepath.Dir(st.Path)
	}
	dir, err := os.MkdirTemp(tempDir, "cc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	mx := metrics.NewCollector()
	cm := diskio.CostModel{
		PageSize: st.PageSize, Latency: opts.Latency, Metrics: mx,
		Context: ctx, Events: opts.Events,
	}
	emit := func(e events.Event) {
		if opts.Events != nil {
			e.Algorithm = v.String()
			opts.Events.Event(e)
		}
	}
	iterations := 0
	finish := func(err error) (*engine.Result, error) {
		res := engine.NewResult(mx)
		res.Iterations = iterations
		return res, err
	}

	// Convert the input store into the iteration stream format. The read
	// of the input is charged through the device; the conversion write is
	// the first remainder write (for CC-DS it also applies the
	// degree-descending permutation, derivable from the store directory
	// without touching data pages).
	var toOrig []graph.VertexID
	var perm []graph.VertexID // original id -> processing id
	if v == DS {
		perm, toOrig = dsPermutation(st)
	}
	cur := filepath.Join(dir, "iter-0.ccg")
	if err := convertStore(st, base, cur, perm, cm); err != nil {
		return finish(err)
	}

	budgetBytes := int64(opts.MemoryPages) * int64(st.PageSize)
	for iter := 1; ; iter++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if iter > st.NumVertices+2 {
			return finish(fmt.Errorf("cc: no progress after %d iterations", iter))
		}
		itStart := time.Now()
		emit(events.Event{Kind: events.IterationStart, Iteration: iter - 1})
		next := filepath.Join(dir, fmt.Sprintf("iter-%d.ccg", iter))
		tris, edgesLeft, err := iterate(cur, next, budgetBytes, cm, opts.OnTriangles, toOrig)
		mx.AddTriangles(tris)
		if tris > 0 {
			emit(events.Event{Kind: events.TrianglesFound, Iteration: iter - 1, N: tris})
		}
		emit(events.Event{Kind: events.IterationEnd, Iteration: iter - 1, N: tris, Elapsed: time.Since(itStart)})
		if err != nil {
			return finish(err)
		}
		iterations = iter
		os.Remove(cur)
		cur = next
		if edgesLeft == 0 {
			return finish(nil)
		}
	}
}

// dsPermutation computes the degree-descending relabeling from the store
// directory. perm maps original -> processing id; toOrig is the inverse.
func dsPermutation(st *storage.Store) (perm, toOrig []graph.VertexID) {
	n := st.NumVertices
	toOrig = make([]graph.VertexID, n)
	for i := range toOrig {
		toOrig[i] = graph.VertexID(i)
	}
	sort.SliceStable(toOrig, func(i, j int) bool {
		di, dj := st.DegreeOf(toOrig[i]), st.DegreeOf(toOrig[j])
		if di != dj {
			return di > dj
		}
		return toOrig[i] < toOrig[j]
	})
	perm = make([]graph.VertexID, n)
	for rank, orig := range toOrig {
		perm[orig] = graph.VertexID(rank)
	}
	return perm, toOrig
}

// convertStore reads every page of st through a latency-accounted device
// and writes the stream-format working file (applying perm when non-nil).
func convertStore(st *storage.Store, base ssd.PageDevice, path string, perm []graph.VertexID, cm diskio.CostModel) error {
	dev := ssd.NewSyncDevice(base, ssd.AsyncOptions{
		Latency: cm.Latency, Metrics: cm.Metrics, Context: cm.Context, Events: cm.Events,
	})
	w, err := diskio.NewStreamWriter(path, cm)
	if err != nil {
		return err
	}
	// With a permutation the records must be emitted in processing order;
	// buffer them. Without one, stream directly.
	var buffered map[uint32][]uint32
	if perm != nil {
		buffered = make(map[uint32][]uint32, st.NumVertices)
	}
	var p uint32
	for p < st.NumPages {
		count := st.AlignedRange(p, 1)
		data, err := dev.ReadPages(p, count)
		if err != nil {
			return fmt.Errorf("cc: reading pages [%d,+%d): %w", p, count, err)
		}
		recs, err := st.Decode(data)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if len(r.Adj) == 0 {
				continue
			}
			if perm == nil {
				if err := w.WriteRecord(r.ID, r.Adj); err != nil {
					return err
				}
				continue
			}
			adj := make([]uint32, len(r.Adj))
			for i, x := range r.Adj {
				adj[i] = uint32(perm[x])
			}
			sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
			buffered[uint32(perm[r.ID])] = adj
		}
		p += uint32(count)
	}
	if perm != nil {
		ids := make([]uint32, 0, len(buffered))
		for id := range buffered {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if err := w.WriteRecord(id, buffered[id]); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

// iterate performs one partition-identify-shrink round: read curPath,
// write the shrunken remainder to nextPath, and return the triangles found
// plus the number of edges remaining. Triangles are listed to out when it is
// non-nil.
func iterate(curPath, nextPath string, budgetBytes int64, cm diskio.CostModel, out func(u, v uint32, ws []uint32), toOrig []graph.VertexID) (int64, int64, error) {
	r, err := diskio.NewStreamReader(curPath, cm)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = r.Close() }() // read-only pass; nothing to lose on close

	// Partition M: records in order until the memory budget fills.
	inM := make(map[uint32][]uint32)
	var mOrder []uint32
	var usedBytes int64
	for usedBytes < budgetBytes {
		id, adj, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		inM[id] = adj
		mOrder = append(mOrder, id)
		usedBytes += int64(8 + 4*len(adj))
	}

	emit := func(u, v uint32, ws []uint32) {
		if out == nil {
			return
		}
		if toOrig != nil {
			// The (u, v, w) roles follow the processing order; after mapping
			// back to original ids each triangle's corners must be re-sorted
			// so id(u) < id(v) < id(w) holds in the output.
			ou, ov := uint32(toOrig[u]), uint32(toOrig[v])
			for _, w := range ws {
				c := [3]uint32{ou, ov, uint32(toOrig[w])}
				sort.Slice(c[:], func(i, j int) bool { return c[i] < c[j] })
				out(c[0], c[1], c[2:3])
			}
			return
		}
		out(u, v, ws)
	}

	var tris int64
	var buf []uint32
	intersectEmit := func(u uint32, adjU []uint32, v uint32, adjV []uint32) {
		nsU := nsucc(adjU, u)
		nsV := nsucc(adjV, v)
		cm.Metrics.AddIntersect(intersect.MinCost(nsU, nsV))
		buf = intersect.Adaptive(buf[:0], nsU, nsV)
		if len(buf) > 0 {
			tris += int64(len(buf))
			emit(u, v, buf)
		}
	}

	// Intra-M triangles.
	for _, u := range mOrder {
		adjU := inM[u]
		for _, v := range nsucc(adjU, u) {
			if adjV, ok := inM[v]; ok {
				intersectEmit(u, adjU, v, adjV)
			}
		}
	}

	// Stream the rest; find cross triangles and write the remainder.
	w, err := diskio.NewStreamWriter(nextPath, cm)
	if err != nil {
		return 0, 0, err
	}
	var edgesLeft int64
	for {
		id, adj, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		for _, u := range npred(adj, id) {
			if adjU, ok := inM[u]; ok {
				intersectEmit(u, adjU, id, adj)
			}
		}
		// Remainder: drop neighbors in M. With prefix partitions every
		// neighbor in M is a lower id, so filtering n≺ suffices, but filter
		// generally for safety.
		kept := adj[:0]
		for _, x := range adj {
			if _, ok := inM[x]; !ok {
				kept = append(kept, x)
			}
		}
		if len(kept) > 0 {
			if err := w.WriteRecord(id, kept); err != nil {
				return 0, 0, err
			}
			edgesLeft += int64(len(nsucc(kept, id)))
		}
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	return tris, edgesLeft, nil
}

func nsucc(adj []uint32, v uint32) []uint32 { return adj[intersect.UpperBound(adj, v):] }
func npred(adj []uint32, v uint32) []uint32 { return adj[:intersect.LowerBound(adj, v)] }
