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
// run's own rule, rangeEnd, charging every vertex its degree, where the run
// charges |n≻| from the successor directory (runner.internalRange): no
// planned range is longer than the run's at the same lo, so the prediction
// is an upper bound on the run's iterations and pages. planAreas evaluates
// it for every legal split of the budget before any I/O and keeps the
// cheapest:
//
//	cost(m_in) = pages · (1 + planReadCost/W) + iterations · planIterCost
//
// in units of one external page moved through the window: a read's latency
// is shared by the W = externalWindow(m_ex) pages the external pass admits.
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
	// planSteps bounds the candidates above the even split, so that
	// planAreas walks the store at most planSteps + 1 times whatever m is.
	planSteps = 16
)

// externalWindow is the external pass's page budget for an external area of
// mEx pages: its undecoded reads and the pool's resident chunks share it,
// each page counted once (DESIGN.md §9). newRunner admits the pass on it,
// and the planner prices a read's latency over it.
func externalWindow(mEx int) int { return 2 * mEx }

// areaPlan is one split of the buffer and what the directory predicts for it.
type areaPlan struct {
	mIn, mEx   int
	first      uint32 // end of the first internal range
	iterations int
	reqs       int64 // external requests (chunks) over the whole run
	pages      int64 // pages those requests cover
	walks      int   // splits planAreas evaluated to choose this one
}

func (p areaPlan) cost() float64 {
	return float64(p.pages)*(1+planReadCost/float64(externalWindow(p.mEx))) + float64(p.iterations)*planIterCost
}

// pageSums is what the chunks starting below a page hold.
type pageSums struct {
	chunks  int // chunks starting in the pages below
	degrees int // Σ |n(v)| over their records
}

// pagePrefix holds, at index p, the pageSums of the pages [0, p), for
// p ∈ [0, NumPages]. Built in one pass over the directories, it answers
// every sum the planner needs over an aligned page range in O(1).
type pagePrefix []pageSums

// newPagePrefix builds st's pagePrefix and returns the store's largest
// chunk, in pages, beside it.
func newPagePrefix(st *storage.Store) (pp pagePrefix, maxSpan int) {
	pp = make(pagePrefix, st.NumPages+1)
	maxSpan = 1
	for p := uint32(0); p < st.NumPages; {
		next := p + uint32(st.AlignedRange(p, 1))
		maxSpan = max(maxSpan, int(next-p))
		s := pp[p]
		if st.StartsRecord(p) {
			s.chunks++
		}
		for v, end := st.FirstRecordOf(p), st.FirstRecordOf(next); v < end; v++ {
			s.degrees += st.DegreeOf(v)
		}
		for q := p + 1; q <= next; q++ {
			pp[q] = s
		}
		p = next
	}
	return pp, maxSpan
}

// degrees is a rangeSum: Σ |n(v)| over the records of [lo, hi).
func (pp pagePrefix) degrees(lo, hi uint32) int { return pp[hi].degrees - pp[lo].degrees }

// chunks returns the chunks starting in [lo, hi).
func (pp pagePrefix) chunks(lo, hi uint32) int { return pp[hi].chunks - pp[lo].chunks }

// planAreas splits a budget of m pages into the internal and external area
// for a run of model over st. A split is legal while the external area
// still holds twice the store's largest chunk, so that a multi-page
// adjacency list never has the area to itself; the even split of §5.1 is
// a candidate whatever m is. The candidates are m_in = m/2, the largest
// legal m_in and, between them, every legal m_in — or, when there are more
// than planSteps − 1 of those, planSteps − 1 evenly spaced ones. Each
// candidate is one walk of rangeEnd over the store, O(P) on the prefix
// sums built once per call, so a call costs O(V + walks·P) with
// walks ≤ planSteps + 1.
func planAreas(st *storage.Store, model engine.Model, m int) areaPlan {
	pp, maxSpan := newPagePrefix(st)
	even, top := m/2, m-2*maxSpan         // top: the largest legal m_in
	n := max(0, min(planSteps, top-even)) // candidates above the even split
	var best areaPlan
	for k := 0; k <= n; k++ {
		mIn := even
		if k > 0 {
			mIn += k * (top - even) / n
		}
		p := areaPlan{mIn: max(1, mIn), mEx: max(1, m-mIn)}
		for lo := uint32(0); lo < st.NumPages; {
			hi, _ := rangeEnd(st, lo, p.mIn, pp.degrees, pp.degrees)
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
			p.reqs += int64(pp.chunks(from, to))
			lo = hi
		}
		if k == 0 || p.cost() < best.cost() {
			best = p
		}
	}
	best.walks = n + 1
	return best
}
