//go:build optpoison

package buffer

import (
	"testing"

	"github.com/optlab/opt/internal/storage"
)

// TestPutChunkPoisonsRetainedSlices is the use-after-recycle guard at work:
// an adjacency slice deliberately kept past PutChunk reads the sentinel, not
// the neighbours it held — or, worse, the next decode's.
func TestPutChunkPoisonsRetainedSlices(t *testing.T) {
	c := GetChunk()
	c.Arena = append(c.Arena, 7, 8, 9)
	c.Recs = append(c.Recs, storage.VertexRec{ID: 6, Adj: c.Arena[:3]})
	kept := c.Recs[0].Adj
	PutChunk(c)
	for i, v := range kept {
		if v != PoisonVertex {
			t.Fatalf("retained Adj[%d] = %d after PutChunk, want the sentinel %d", i, v, PoisonVertex)
		}
	}
	if c.Recs != nil {
		t.Fatal("PutChunk left the record headers reachable")
	}
}
