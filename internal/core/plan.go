package core

import (
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/storage"
)

// The iteration planner (DESIGN.md §5). The external request list of an
// iteration is at most — and, once a page holds tens of records, to within
// a percent exactly — every chunk on the side of the internal range its
// model draws candidates from: above it for EdgeIterator≻ (n≻), below it
// for VertexIterator≻ (n≺), all of the store for the MGT instance. So the
// pages a run reads and the iterations it takes are a function of m_in and
// the directories alone, given its ranges. The planner takes them from the
// run's own rule, rangeEnd, charging every vertex its degree: that is
// exactly a run's first range, and its later ranges are longer, since the
// run charges the |n≻| it has learned by then (runner.internalRange), so
// the prediction is an upper bound on both. planAreas evaluates it for a
// few splits of the budget before any I/O and keeps the cheapest:
//
//	cost(m_in) = pages · (1 + planReadCost/m_ex) + iterations · planIterCost
//
// in units of one external page moved through the window: a read's latency
// is shared by the m_ex = m − m_in pages the window keeps in flight.
const (
	// planReadCost (ρ) is the latency of one device read, in pages. Fitted
	// on the 8-point m_in sweeps of the sparse-io, sparse-dv and dense-cpu
	// benchmark shapes (CHANGES.md, PR 21): the residual of
	// time = a + b·cost is smallest at ρ = 9 / 7.5 (sparse-io / sparse-dv)
	// and within 1.5× of that for ρ = 10 with κ = 50; dense-cpu is flat
	// from m_in = 5m/8 up. The simulated device of the sparse shapes
	// charges 100 µs per read and 10 µs per page.
	planReadCost = 10
	// planIterCost (κ) is the fixed cost of one more iteration — the load
	// barrier, the request-list build, a window that starts empty — in the
	// same unit, from the same fit (ρ and κ trade along a ridge: 9/0,
	// 10/50, 12/75 fit sparse-io equally well).
	planIterCost = 50
)

// areaPlan is one split of the buffer and what the directory predicts for it.
type areaPlan struct {
	mIn, mEx   int
	first      uint32 // end of the first internal range
	iterations int
	reqs       int64 // external requests (chunks) over the whole run
	pages      int64 // pages those requests cover
}

func (p areaPlan) cost() float64 {
	return float64(p.pages)*(1+planReadCost/float64(p.mEx)) + float64(p.iterations)*planIterCost
}

// planAreas splits a budget of m pages into the internal and external area
// for a run of model over st. Candidates are m_in ∈ {4,5,6,7}·m/8. The even
// split of §5.1 is always one; a larger internal area qualifies only while
// the external area still holds twice the store's largest chunk, so that a
// multi-page adjacency list never has the area to itself.
func planAreas(st *storage.Store, model engine.Model, m int) areaPlan {
	// chunksBelow[p] counts the chunks starting in pages [0, p).
	chunksBelow := make([]int32, st.NumPages+1)
	maxSpan, span := 1, 0
	for p := uint32(0); p < st.NumPages; p++ {
		chunksBelow[p+1] = chunksBelow[p]
		if st.StartsRecord(p) {
			chunksBelow[p+1]++
			span = 0
		}
		span++
		maxSpan = max(maxSpan, span)
	}

	var best areaPlan
	for k := 4; k < 8; k++ {
		mIn := max(1, m*k/8)
		p := areaPlan{mIn: mIn, mEx: max(1, m-mIn)}
		if k > 4 && p.mEx < 2*maxSpan {
			break
		}
		for lo := uint32(0); lo < st.NumPages; {
			hi, _ := rangeEnd(st, lo, p.mIn, st.DegreeOf)
			if lo == 0 {
				p.first = hi
			}
			p.iterations++
			from, to := hi, st.NumPages // EdgeIterator≻: candidates are n≻
			switch model {
			case engine.ModelVertex:
				from, to = 0, lo
			case engine.ModelMGTInstance:
				from = 0
			}
			p.pages += int64(to - from)
			p.reqs += int64(chunksBelow[to] - chunksBelow[from])
			lo = hi
		}
		if k == 4 || p.cost() < best.cost() {
			best = p
		}
	}
	return best
}
