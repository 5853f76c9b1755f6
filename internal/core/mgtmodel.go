package core

import (
	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/storage"
)

// mgtModel instantiates MGT inside the OPT framework, demonstrating the
// §3.5 genericity claim: (1) the internal triangulation does nothing,
// (2) every vertex adjacent to the internal area becomes an external
// candidate — without the "not internal" filter, so the block's own
// records flow through the external area exactly like the full rescan of
// the original MGT — and (3) the vertex-iterator pair kernel identifies
// all triangles. Combine it with the disableMicroOverlap seam to reproduce
// MGT's synchronous I/O behaviour (§3.5 point 4); with asynchronous I/O
// left on, the instance is strictly better than the original, as the
// paper's Eq. 7 comparison anticipates.
//
// One refinement over the original MGT: instead of rescanning every page
// of the graph per block, the instance requests only the adjacency lists
// that can actually pair with the block (the neighbors of block vertices),
// which prunes the scan without changing the result.
type mgtModel struct{}

// InternalTriangle does nothing: MGT has no internal triangulation.
func (mgtModel) InternalTriangle(*Ctx, *work, storage.VertexRec) {}

// ExternalCandidates adds every neighbor of the loaded record — lower and
// higher ids alike, internal or not.
func (mgtModel) ExternalCandidates(ctx *Ctx, v storage.VertexRec, vex *bits.Set) {
	vex.AddAll(v.Adj)
	vex.Add(int(v.ID)) // the record itself pairs with other internal lists
}

// ExternalTriangle applies the vertex-iterator pair kernel: triangles
// Δuvw with n(v) in the current block are found from the external record
// u's ordered pairs.
func (mgtModel) ExternalTriangle(ctx *Ctx, w *work, u storage.VertexRec) {
	vertexIteratorPairs(ctx, w, u)
}
