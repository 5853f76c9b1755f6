package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/internal/baselines/inmem"
	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// paths locates what the benchmark needs inside the checkout.
type paths struct {
	optd   string // cmd/optd binary
	opttri string // cmd/opttri binary
	out    string // where the span files go
	work   string // scratch directory under out; every set-up makes its own subdirectory
}

// env is one set-up of a workload: the generated graph's stores, the
// oracle count, and (for the serve path) the optd daemons.
type env struct {
	w      workload
	p      paths
	dir    string
	edges  int64
	digest string // sha256 of the generated edge list
	oracle int64
	stores []*opt.Store // one per w.codecs entry
	fleet  *fleet       // nil until startFleet

	// phase durations of this set-up, for the per-layer build metrics
	genTime, openTime time.Duration
	buildTime         []time.Duration // per store
}

// setUp generates the workload's graph from seed and takes the path a real
// user takes: edge-list file → streaming store build → open. It records a
// span per phase under parent when tr is non-nil.
func setUp(ctx context.Context, w workload, p paths, seed int64, tr *tracer, parent int) (e *env, err error) {
	trace := w.name + "/setup"
	d, err := gen.DatasetByName(w.dataset)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	e = &env{w: w, p: p, dir: dir}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()

	t := time.Now()
	g0, err := gen.RMAT(gen.DefaultRMAT(w.vertices, int64(float64(w.vertices)*d.Density), seed))
	if err != nil {
		return e, err
	}
	g, _ := graph.DegreeOrder(g0)
	e.edges = g.NumEdges()
	e.genTime = time.Since(t)
	tr.add(parent, trace, "gen.generate", t, time.Now(), map[string]any{"vertices": w.vertices, "edges": e.edges})

	t = time.Now()
	elPath := filepath.Join(dir, "graph.el")
	if e.digest, err = writeEdgeList(elPath, g); err != nil {
		return e, fmt.Errorf("write edge list: %w", err)
	}
	tr.add(parent, trace, "edgelist.write", t, time.Now(), nil)

	for _, codec := range w.codecs {
		t = time.Now()
		path := filepath.Join(dir, codec+".optstore")
		if _, err = opt.BuildStoreStreamingCodecContext(ctx, path, elPath, pageSize, codec); err != nil {
			return e, fmt.Errorf("build %s store: %w", codec, err)
		}
		e.buildTime = append(e.buildTime, time.Since(t))
		tr.add(parent, trace, "storage.build", t, time.Now(), map[string]any{"codec": codec})

		t = time.Now()
		st, err := opt.OpenStore(path)
		if err != nil {
			return e, fmt.Errorf("open %s store: %w", codec, err)
		}
		e.openTime += time.Since(t)
		tr.add(parent, trace, "opt.OpenStore", t, time.Now(), map[string]any{"codec": codec, "pages": st.NumPages()})
		if st.NumEdges() != e.edges {
			return e, fmt.Errorf("%s store holds %d edges, generated graph has %d", codec, st.NumEdges(), e.edges)
		}
		e.stores = append(e.stores, st)
	}

	t = time.Now()
	e.oracle = inmem.EdgeIteratorCount(g, nil, nil)
	tr.add(parent, trace, "oracle.count", t, time.Now(), map[string]any{"triangles": e.oracle})
	return e, nil
}

// writeEdgeList writes g as "u v" lines and returns the digest of the bytes.
func writeEdgeList(path string, g *graph.Graph) (digest string, err error) {
	f, err := diskio.CreateRaw(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	var werr error
	g.Edges(func(u, v graph.VertexID) bool {
		line = strconv.AppendUint(line[:0], uint64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(v), 10)
		line = append(line, '\n')
		h.Write(line)
		_, werr = bw.Write(line)
		return werr == nil
	})
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return hex.EncodeToString(h.Sum(nil)), werr
}

// storeBytesPerEdge is the data-region size of the workload's stores over
// the edges they hold.
func (e *env) storeBytesPerEdge() float64 {
	var bytes, edges int64
	for _, st := range e.stores {
		bytes += int64(st.NumPages()) * int64(st.PageSize())
		edges += st.NumEdges()
	}
	return ratio(float64(bytes), float64(edges))
}

// close stops the daemons and removes the scratch directory.
func (e *env) close() {
	if e.fleet != nil {
		e.fleet.stop()
		e.fleet = nil
	}
	_ = os.RemoveAll(e.dir) // scratch data; a leftover is swept with the work directory
}

// triangleSum is an order-independent checksum over a triangle listing:
// the sum of a mixed hash of each triangle's sorted vertex triple.
func triangleSum(u, v uint32, ws []uint32) uint64 {
	var sum uint64
	var b [12]byte
	for _, w := range ws {
		a, c, d := u, v, w
		if a > c {
			a, c = c, a
		}
		if c > d {
			c, d = d, c
		}
		if a > c {
			a, c = c, a
		}
		binary.LittleEndian.PutUint32(b[0:], a)
		binary.LittleEndian.PutUint32(b[4:], c)
		binary.LittleEndian.PutUint32(b[8:], d)
		sum += fnv64(b[:])
	}
	return sum
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
