package storage

import (
	"os"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

func TestVerifyCleanStores(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<10, 10_000, 61))
	if err != nil {
		t.Fatal(err)
	}
	ordered, _ := graph.DegreeOrder(raw)
	for name, g := range map[string]*graph.Graph{
		"paper": graph.PaperExample(),
		"rmat":  ordered,
		"star":  graph.Star(300), // multi-page runs
		"k30":   graph.Complete(30),
	} {
		for _, ps := range []int{64, 256} {
			s := buildAndOpen(t, g, ps)
			dev, err := s.Device()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(s, dev)
			if cerr := dev.Close(); cerr != nil {
				t.Fatalf("%s/ps=%d: closing device: %v", name, ps, cerr)
			}
			if err != nil {
				t.Fatalf("%s/ps=%d: %v", name, ps, err)
			}
			if rep.Edges != g.NumEdges() || rep.Vertices != g.NumVertices() {
				t.Fatalf("%s/ps=%d: report %+v", name, ps, rep)
			}
			if rep.Asymmetric != 0 {
				t.Fatalf("%s/ps=%d: clean store flagged: %+v", name, ps, rep)
			}
			if rep.MaxDegree != g.MaxDegree() {
				t.Fatalf("%s/ps=%d: MaxDegree = %d, want %d", name, ps, rep.MaxDegree, g.MaxDegree())
			}
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	g := graph.PaperExample()
	s := buildAndOpen(t, g, 64)

	// Flip bytes in the data region and expect Verify to object.
	f, err := os.OpenFile(s.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first record's first neighbor: page 0 starts at
	// size − NumPages·pageSize; the neighbor sits after the 8-byte page
	// header and the 8-byte record header.
	dataStart := st.Size() - int64(s.NumPages)*int64(s.PageSize)
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, dataStart+16); err != nil {
		t.Fatal(err)
	}

	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	if _, err := Verify(s, dev); err == nil {
		t.Fatal("Verify accepted a corrupted store")
	}
}

func TestVerifyDetectsHeaderMismatch(t *testing.T) {
	g := graph.PaperExample()
	s := buildAndOpen(t, g, 64)
	s.NumEdges++ // simulate a header lying about the edge count
	dev, err := s.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	if _, err := Verify(s, dev); err == nil {
		t.Fatal("Verify accepted an edge-count mismatch")
	}
}
