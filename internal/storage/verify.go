package storage

import (
	"context"
	"fmt"
	"slices"

	"github.com/optlab/opt/internal/ssd"
)

// VerifyReport summarises a full-store integrity check.
type VerifyReport struct {
	Vertices   int
	Edges      int64 // directed adjacency entries / 2
	MaxDegree  int
	Asymmetric int64 // directed entries without a reverse entry
}

// Verify scans every data page of the store and checks the on-disk
// invariants:
//
//   - every page range decodes, and DecodeAt holds its records to the
//     directories and to the pages read: in id order, every id once, each
//     record in the page range the vertex directory names, each list as
//     long as its degree, strictly increasing and below |V|, and split by
//     the successor directory exactly where its ids pass the record's own,
//   - no list holds a self-loop,
//   - every edge appears in both endpoints' lists (symmetry).
//
// It is the fsck for store files, used by cmd/optinfo -verify.
func Verify(s *Store, dev ssd.PageDevice) (*VerifyReport, error) {
	rep := &VerifyReport{Vertices: s.NumVertices}
	adj := make(map[uint32][]uint32, s.NumVertices)
	var sc Scanner
	err := sc.Scan(context.TODO(), s, dev, 0, s.NumPages, 8, func(recs []VertexRec) error {
		for _, r := range recs {
			if _, self := slices.BinarySearch(r.Adj, r.ID); self {
				return fmt.Errorf("storage: vertex %d has a self-loop", r.ID)
			}
			rep.MaxDegree = max(rep.MaxDegree, len(r.Adj))
			adj[r.ID] = slices.Clone(r.Adj)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(adj) != s.NumVertices {
		return nil, fmt.Errorf("storage: decoded %d records, directory says %d", len(adj), s.NumVertices)
	}
	// Symmetry check.
	var entries int64
	for v, ns := range adj {
		entries += int64(len(ns))
		for _, w := range ns {
			if _, ok := slices.BinarySearch(adj[w], v); !ok {
				rep.Asymmetric++
			}
		}
	}
	rep.Edges = entries / 2
	if rep.Edges != s.NumEdges {
		return nil, fmt.Errorf("storage: %d edges on disk, header says %d", rep.Edges, s.NumEdges)
	}
	if rep.Asymmetric > 0 {
		return rep, fmt.Errorf("storage: %d asymmetric adjacency entries", rep.Asymmetric)
	}
	return rep, nil
}
