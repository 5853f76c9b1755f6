package storage

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/optlab/opt/internal/extsort"
	"github.com/optlab/opt/internal/graph"
)

// EdgeScanner is a re-iterable source of undirected edges. Scan must call
// fn once per input edge and may be invoked multiple times (the streaming
// builder makes two passes). Self-loops and duplicates are tolerated.
type EdgeScanner interface {
	Scan(fn func(u, v uint32) error) error
}

// StreamBuildOptions configures BuildFileStreaming.
type StreamBuildOptions struct {
	// PageSize of the store; 0 selects DefaultPageSize.
	PageSize int
	// TempDir holds the external-sort runs and the staged data pages;
	// defaults to the store's directory.
	TempDir string
	// RunSize is the external sorter's in-memory run length in keys
	// (≤ 0 selects the default ~32 MiB). Small values are used by tests to
	// force spills.
	RunSize int
	// DegreeOrder applies the Schank–Wagner relabeling (computed from the
	// first pass's degree counts) before writing. Strongly recommended:
	// every algorithm in the paper assumes it.
	DegreeOrder bool
	// Codec names the page codec ("" selects raw); see Codecs.
	Codec string
}

// BuildFileStreaming builds a store from an edge stream with bounded
// memory: only the degree array, the permutation, the directories (O(V))
// and the external sorter's run buffer are held in RAM — the edge list
// itself never is. This is the preprocessing path for graphs whose edge
// lists exceed memory, per the paper's billion-scale-on-one-PC premise.
//
// Pass 1 counts degrees and determines the vertex count. Pass 2 feeds
// both directions of every edge through an external merge sort keyed by
// (newID(src) << 32) | newID(dst); the sorted stream is deduplicated and
// packed into slotted pages on the fly, with data pages staged to a
// temporary file and assembled into the final store layout at the end.
func BuildFileStreaming(path string, src EdgeScanner, opts StreamBuildOptions) (*Store, error) {
	return BuildFileStreamingContext(context.Background(), path, src, opts)
}

// BuildFileStreamingContext is BuildFileStreaming with cancellation: when
// ctx is done, the build stops within a bounded number of edges (both scan
// passes, the external sort and the final page copy check the context
// periodically), leaves path untouched and no temp file behind, and returns
// an error satisfying errors.Is(err, ctx.Err()).
func BuildFileStreamingContext(ctx context.Context, path string, src EdgeScanner, opts StreamBuildOptions) (*Store, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The per-edge checks are amortised (every few thousand edges), so small
	// inputs might otherwise never observe a cancelled context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	codec, err := CodecByName(opts.Codec)
	if err != nil {
		return nil, err
	}
	if opts.PageSize == 0 {
		opts.PageSize = DefaultPageSize
	}
	if min := MinPageSizeFor(codec); opts.PageSize < min {
		return nil, fmt.Errorf("storage: page size %d below %s codec minimum %d", opts.PageSize, codec.Name(), min)
	}
	if opts.TempDir == "" {
		opts.TempDir = filepath.Dir(path)
	}

	// ctxTick checks the context every few thousand edges, keeping the
	// check off the per-edge fast path.
	var ticks int
	ctxTick := func() error {
		ticks++
		if ticks&0x1fff != 0 {
			return nil
		}
		return ctx.Err()
	}

	// Pass 1: degrees (duplicate-inclusive — used only for the ordering
	// heuristic and for sizing; exact degrees come from the sorted stream).
	var deg []uint32
	if err := src.Scan(func(u, v uint32) error {
		if err := ctxTick(); err != nil {
			return err
		}
		if u == v {
			return nil
		}
		hi := u
		if v > hi {
			hi = v
		}
		for uint32(len(deg)) <= hi {
			deg = append(deg, 0)
		}
		deg[u]++
		deg[v]++
		return nil
	}); err != nil {
		return nil, fmt.Errorf("storage: streaming pass 1: %w", err)
	}
	n := len(deg)
	if n == 0 {
		return nil, fmt.Errorf("storage: streaming build of an empty edge stream")
	}

	// Ordering permutation: newID[orig].
	newID := make([]uint32, n)
	if opts.DegreeOrder {
		perm := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		sort.SliceStable(perm, func(i, j int) bool {
			if deg[perm[i]] != deg[perm[j]] {
				return deg[perm[i]] < deg[perm[j]]
			}
			return perm[i] < perm[j]
		})
		for rank, orig := range perm {
			newID[orig] = uint32(rank)
		}
	} else {
		for i := range newID {
			newID[i] = uint32(i)
		}
	}

	// Pass 2: external sort of both edge directions under the new ids.
	sorter := extsort.NewSorter(opts.TempDir, opts.RunSize)
	sorter.SetContext(ctx)
	if err := src.Scan(func(u, v uint32) error {
		if err := ctxTick(); err != nil {
			return err
		}
		if u == v {
			return nil
		}
		a, b := uint64(newID[u]), uint64(newID[v])
		if err := sorter.Push(a<<32 | b); err != nil {
			return err
		}
		return sorter.Push(b<<32 | a)
	}); err != nil {
		return nil, fmt.Errorf("storage: streaming pass 2: %w", err)
	}

	// Stage data pages to a temp file while consuming the sorted stream.
	stage, err := os.CreateTemp(opts.TempDir, "optstore-stage-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		stage.Close()
		os.Remove(stage.Name())
	}()
	stageW := bufio.NewWriterSize(stage, 1<<20)

	w := newPageWriter(opts.PageSize, codec)
	var pageFirst []uint32
	w.sink = func(page []byte, _ uint32) error {
		_, err := stageW.Write(page)
		return err
	}

	firstPage := make([]uint32, n)
	exactDeg := make([]uint32, n)
	var edges int64

	var curID int64 = -1
	var curAdj []uint32
	var last uint64
	emitRecord := func(id uint32) {
		exactDeg[id] = uint32(len(curAdj))
		edges += int64(len(curAdj))
		firstPage[id] = w.appendRecord(id, curAdj)
		curAdj = curAdj[:0]
	}
	flushThrough := func(nextID int64) {
		// Emit the pending record and empty records for any id gap.
		if curID >= 0 {
			emitRecord(uint32(curID))
			curID++
		} else {
			curID = 0
		}
		for ; curID < nextID; curID++ {
			emitRecord(uint32(curID))
		}
	}
	first := true
	if err := sorter.Sort(func(key uint64) error {
		if !first && key == last {
			return nil // duplicate edge
		}
		first = false
		last = key
		srcID := int64(key >> 32)
		dst := uint32(key)
		if srcID != curID {
			flushThrough(srcID)
		}
		curAdj = append(curAdj, dst)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("storage: streaming sort: %w", err)
	}
	flushThrough(int64(n)) // pending record plus trailing isolated vertices
	w.finish()
	pageFirst = w.firstRec
	if w.sinkErr != nil {
		return nil, w.sinkErr
	}
	if err := stageW.Flush(); err != nil {
		return nil, err
	}

	s := &Store{
		Path:        path,
		PageSize:    opts.PageSize,
		NumVertices: n,
		NumEdges:    edges / 2,
		NumPages:    w.emitted,
		version:     storeVersionV2,
		codec:       codec,
		firstPage:   firstPage,
		degree:      exactDeg,
		pageFirst:   pageFirst,
	}
	if _, err := stage.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if err := s.writeFile(ctxReader{ctx, stage}); err != nil {
		return nil, err
	}
	return s, nil
}

// ctxReader fails reads once ctx is done, so copying the staged pages of a
// large store into place stays cancellable.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// GraphScanner adapts an in-memory graph to EdgeScanner (for tests and for
// equivalence checks against BuildFile).
type GraphScanner struct{ G *graph.Graph }

// Scan implements EdgeScanner.
func (g GraphScanner) Scan(fn func(u, v uint32) error) error {
	var err error
	g.G.Edges(func(u, v graph.VertexID) bool {
		err = fn(uint32(u), uint32(v))
		return err == nil
	})
	return err
}

// EdgeListFileScanner scans a whitespace-separated text edge list file
// ("u v" per line, '#'/'%' comments) on every pass — the streaming
// counterpart of the in-memory edge-list reader. Vertex ids are used as
// given (they must be < 2³²); the vertex count becomes maxID+1.
type EdgeListFileScanner struct{ Path string }

// Scan implements EdgeScanner.
func (e EdgeListFileScanner) Scan(fn func(u, v uint32) error) error {
	f, err := os.Open(e.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		i := 0
		for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
			i++
		}
		if i == len(text) || text[i] == '#' || text[i] == '%' {
			continue
		}
		u, rest, err := parseUint32(text[i:])
		if err != nil {
			return fmt.Errorf("storage: edge list line %d: %w", line, err)
		}
		v, _, err := parseUint32(rest)
		if err != nil {
			return fmt.Errorf("storage: edge list line %d: %w", line, err)
		}
		if err := fn(u, v); err != nil {
			return err
		}
	}
	return sc.Err()
}

// parseUint32 reads one base-10 uint32 from the front of s, returning the
// remainder after any following whitespace.
func parseUint32(s string) (uint32, string, error) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	start := i
	var x uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		x = x*10 + uint64(s[i]-'0')
		if x > 1<<32-1 {
			return 0, "", fmt.Errorf("vertex id overflows uint32")
		}
		i++
	}
	if i == start {
		return 0, "", fmt.Errorf("expected a number, got %q", s)
	}
	return uint32(x), s[i:], nil
}
