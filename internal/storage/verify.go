package storage

import (
	"fmt"
	"slices"

	"github.com/optlab/opt/internal/ssd"
)

// VerifyReport summarises a full-store integrity check.
type VerifyReport struct {
	Vertices    int
	Edges       int64 // directed adjacency entries / 2
	Pages       uint32
	RunPages    uint32 // pages belonging to multi-page records
	SharedPages uint32 // slotted pages holding ≥ 2 records
	MaxDegree   int
	Asymmetric  int64 // directed entries without a reverse entry
}

// Verify scans every data page of the store and checks the on-disk
// invariants:
//
//   - every page range decodes, and Decode holds its records to the
//     directories: in id order, every id once, each list as long as its
//     degree, strictly increasing and below |V|, and split by the
//     successor directory exactly where its ids pass the record's own,
//   - each record lies in the page range the vertex directory names,
//   - no list holds a self-loop,
//   - every edge appears in both endpoints' lists (symmetry).
//
// It is the fsck for store files, used by cmd/optinfo -verify.
func Verify(s *Store, dev ssd.PageDevice) (*VerifyReport, error) {
	rep := &VerifyReport{Vertices: s.NumVertices, Pages: s.NumPages}
	adj := make(map[uint32][]uint32, s.NumVertices)
	var pid uint32
	for pid < s.NumPages {
		count := s.AlignedRange(pid, 8)
		data, err := dev.ReadPages(pid, count)
		if err != nil {
			return nil, fmt.Errorf("storage: verify read [%d,+%d): %w", pid, count, err)
		}
		recs, err := s.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("storage: verify decode [%d,+%d): %w", pid, count, err)
		}
		for _, r := range recs {
			fp := s.FirstPageOf(r.ID)
			if fp < pid || fp >= pid+uint32(count) {
				return nil, fmt.Errorf("storage: vertex %d directory page %d outside its range [%d,+%d)", r.ID, fp, pid, count)
			}
			if _, self := slices.BinarySearch(r.Adj, r.ID); self {
				return nil, fmt.Errorf("storage: vertex %d has a self-loop", r.ID)
			}
			rep.MaxDegree = max(rep.MaxDegree, len(r.Adj))
			adj[r.ID] = r.Adj
		}
		// Page classification.
		for p := pid; p < pid+uint32(count); p++ {
			if !s.StartsRecord(p) {
				rep.RunPages++
			}
		}
		pid += uint32(count)
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
