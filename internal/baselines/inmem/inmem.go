// Package inmem implements the in-memory triangulation baselines of §2.2
// and §5.3: VertexIterator≻ (Algorithm 1), EdgeIterator≻ (Algorithm 2), and
// the AYZ matrix-multiplication counting method of Alon, Yuster & Zwick [2].
// It also provides Ideal: the cost-model reference method that loads the
// whole graph once and triangulates in memory (Eq. 6).
package inmem

import (
	"math"
	"runtime"
	"sync"

	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
)

// Emit receives nested-representation triangles. A nil Emit counts only.
type Emit func(u, v uint32, ws []uint32)

// EdgeIteratorCount runs Algorithm 2: for each edge (u, v), output
// n≻(u) ∩ n≻(v). Returns the triangle count.
func EdgeIteratorCount(g *graph.Graph, emit Emit, mx *metrics.Collector) int64 {
	var total int64
	var buf []uint32
	g.Edges(func(u, v graph.VertexID) bool {
		nsU := g.NeighborsAfter(u)
		nsV := g.NeighborsAfter(v)
		if mx != nil {
			mx.AddIntersect(intersect.MinCost(nsU, nsV))
		}
		buf = intersect.Adaptive(buf[:0], nsU, nsV)
		if len(buf) > 0 {
			total += int64(len(buf))
			if emit != nil {
				emit(uint32(u), uint32(v), buf)
			}
		}
		return true
	})
	if mx != nil {
		mx.AddTriangles(total)
	}
	return total
}

// VertexIteratorCount runs Algorithm 1: for each vertex u and ordered pair
// (v, w) ∈ n≻(u) × n≻(u), test (v, w) ∈ E.
func VertexIteratorCount(g *graph.Graph, emit Emit, mx *metrics.Collector) int64 {
	var total int64
	var buf []uint32
	n := g.NumVertices()
	for ui := 0; ui < n; ui++ {
		u := graph.VertexID(ui)
		ns := g.NeighborsAfter(u)
		for i, v := range ns {
			rest := ns[i+1:]
			if len(rest) == 0 {
				continue
			}
			if mx != nil {
				mx.AddIntersect(int64(len(rest)))
			}
			buf = buf[:0]
			adjV := g.Neighbors(v)
			for _, w := range rest {
				if intersect.Contains(adjV, w) {
					buf = append(buf, w)
				}
			}
			if len(buf) > 0 {
				total += int64(len(buf))
				if emit != nil {
					emit(uint32(u), v, buf)
				}
			}
		}
	}
	if mx != nil {
		mx.AddTriangles(total)
	}
	return total
}

// EdgeIteratorParallel runs Algorithm 2 with the edge loop partitioned over
// vertices across threads goroutines.
func EdgeIteratorParallel(g *graph.Graph, threads int, mx *metrics.Collector) int64 {
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	var wg sync.WaitGroup
	totals := make([]int64, threads)
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []uint32
			var local int64
			for ui := t; ui < n; ui += threads {
				u := graph.VertexID(ui)
				nsU := g.NeighborsAfter(u)
				for _, v := range nsU {
					nsV := g.NeighborsAfter(v)
					if mx != nil {
						mx.AddIntersect(intersect.MinCost(nsU, nsV))
					}
					buf = intersect.Adaptive(buf[:0], nsU, nsV)
					local += int64(len(buf))
				}
			}
			totals[t] = local
		}()
	}
	wg.Wait()
	var total int64
	for _, x := range totals {
		total += x
	}
	if mx != nil {
		mx.AddTriangles(total)
	}
	return total
}

// AYZCount implements the counting method of Alon, Yuster & Zwick:
// vertices are split at threshold Δ = |E|^((ω−1)/(ω+1)) into low- and
// high-degree sets; triangles among high-degree vertices are counted via
// boolean matrix multiplication (bitset rows), and triangles containing at
// least one low-degree vertex via the vertex-iterator with the ordering
// constraint. It counts only — AYZ is not a listing method (§5.3).
func AYZCount(g *graph.Graph, mx *metrics.Collector) int64 {
	const omega = 2.804 // Strassen exponent, as in the paper
	n := g.NumVertices()
	m := float64(g.NumEdges())
	delta := int(math.Pow(m, (omega-1)/(omega+1)))
	if delta < 1 {
		delta = 1
	}

	// Partition: high = degree > Δ.
	high := make([]uint32, 0)
	isHigh := bits.NewSet(n)
	for v := 0; v < n; v++ {
		if g.Degree(graph.VertexID(v)) > delta {
			high = append(high, uint32(v))
			isHigh.Add(v)
		}
	}

	// Step 1: triangles entirely within the high-degree induced subgraph,
	// via trace(A³)/6 computed as Σ_{(u,v)∈E_high} |N_high(u) ∩ N_high(v)| / 3,
	// with bitset rows playing the boolean matrix product.
	hidx := make(map[uint32]int, len(high))
	for i, v := range high {
		hidx[v] = i
	}
	rows := make([]*bits.Set, len(high))
	for i, v := range high {
		row := bits.NewSet(len(high))
		for _, w := range g.Neighbors(v) {
			if j, ok := hidx[w]; ok {
				row.Add(j)
			}
		}
		rows[i] = row
	}
	var highTris int64
	for i, v := range high {
		for _, w := range g.Neighbors(v) {
			if j, ok := hidx[w]; ok && j > i {
				c := int64(rows[i].AndCount(rows[j]))
				if mx != nil {
					mx.AddIntersect(c)
				}
				highTris += c
			}
		}
	}
	highTris /= 3

	// Step 2: triangles with at least one low-degree vertex, counted with
	// the ordering-constrained vertex iterator restricted to u low-degree
	// OR (u high but v or w low). Iterating u over all vertices with the
	// ordering constraint and skipping all-high triangles keeps each
	// triangle counted exactly once.
	var lowTris int64
	for ui := 0; ui < n; ui++ {
		u := graph.VertexID(ui)
		ns := g.NeighborsAfter(u)
		for i, v := range ns {
			rest := ns[i+1:]
			if len(rest) == 0 {
				continue
			}
			if mx != nil {
				mx.AddIntersect(int64(len(rest)))
			}
			adjV := g.Neighbors(v)
			for _, w := range rest {
				if !intersect.Contains(adjV, w) {
					continue
				}
				if isHigh.Contains(int(u)) && isHigh.Contains(int(v)) && isHigh.Contains(int(w)) {
					continue // counted in step 1
				}
				lowTris++
			}
		}
	}
	total := highTris + lowTris
	if mx != nil {
		mx.AddTriangles(total)
	}
	return total
}

// IdealResult reports an Ideal run (Eq. 6): the I/O cost of reading the
// graph once plus the in-memory CPU cost.
type IdealResult struct {
	Triangles int64
	PagesRead int64
}

// Ideal triangulates g as the ideal method: it charges one sequential read
// of all pages (P(G)) to the metrics collector and then runs the in-memory
// EdgeIterator≻ at the Eq. 3 cost — through the kernel OPT's edge-iterator
// model runs (intersect.Prober, AdaptiveBitmap), so Cost_ideal stays a
// lower bound of what OPT can reach. EdgeIteratorCount, the oracle, shares
// none of it. loadPages is P(G) for the store representation in use.
func Ideal(g *graph.Graph, loadPages int64, emit Emit, mx *metrics.Collector) IdealResult {
	var probe intersect.Prober
	var buf []uint32
	var total, calls, ops int64
	n := g.NumVertices()
	succ := make([][]uint32, n) // n≻ of every vertex, split once as OPT does at load
	for u := range succ {
		succ[u] = g.NeighborsAfter(graph.VertexID(u))
	}
	for ui, nsU := range succ {
		set := probe.Fix(nsU, len(nsU), n)
		calls += int64(len(nsU))
		for i, v := range nsU {
			nsV := succ[v]
			ops += intersect.MinCost(nsU, nsV)
			if emit == nil {
				total += int64(intersect.AdaptiveBitmapCount(nsV, nsU[i+1:], set))
				continue
			}
			buf = intersect.AdaptiveBitmap(buf[:0], nsV, nsU[i+1:], set)
			if len(buf) > 0 {
				total += int64(len(buf))
				emit(uint32(ui), v, buf)
			}
		}
		intersect.Unfix(set, nsU)
	}
	if mx != nil {
		mx.AddPagesRead(loadPages)
		mx.AddIntersections(calls, ops)
		mx.AddTriangles(total)
	}
	return IdealResult{Triangles: total, PagesRead: loadPages}
}
