package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/buffer"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Layer probes: each times calls into one layer's public functions over the
// workload's first store, at the workload's own settings, so the per-layer
// numbers say what that layer costs here. probeRepeats timed passes follow
// one untimed pass; the median is reported.
const probeRepeats = 3

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// timeMedian runs fn once untimed and probeRepeats times timed.
func timeMedian(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i <= probeRepeats; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if i > 0 {
			ds = append(ds, float64(time.Since(t)))
		}
	}
	return time.Duration(median(ds)), nil
}

// layerProbe holds the decoded store the kernel probes run over.
type layerProbe struct {
	st    *storage.Store
	recs  []storage.VertexRec // Adj slices keep the decode arena alive
	byID  []int32             // vertex id → index into recs, -1 for a vertex without a record
	after []int32             // per record: offset of n≻(v) inside Adj

	sweep, syncSweep, decode, kernel time.Duration
	listSum                          uint64 // checksum of the oracle's listing
}

// probeLayers runs the storage, ssd, buffer and intersect probes and
// records a span for each under parent.
func (e *env) probeLayers(m metricSet, tr *tracer, parent int) (*layerProbe, error) {
	trace := e.w.name + "/probes"
	st, err := storage.Open(e.stores[0].Path())
	if err != nil {
		return nil, err
	}
	p := &layerProbe{st: st}
	lat := ssd.Latency{PerRead: e.w.lib.Latency.PerRead, PerPage: e.w.lib.Latency.PerPage}
	pages := float64(st.NumPages)

	// gen / storage build path, timed by setUp.
	m.set("gen.generate_s", e.genTime.Seconds(), "s")
	m.set("storage.build_s", e.buildTime[0].Seconds(), "s")
	m.set("storage.build_edges_per_s", ratio(float64(e.edges), e.buildTime[0].Seconds()), "edges/s")
	m.set("storage.open_ms", ms(e.openTime)/float64(len(e.stores)), "ms")
	m.set("storage.pages", pages, "count")
	m.set("storage.reduction_vs_raw", 1-ratio(pages, float64(st.RawDataPages())), "ratio")

	// ssd: one full-store pass of 32-page scatter reads at the workload's
	// latency and the default queue depth, then the same pages read
	// synchronously at queue depth 1 — the c·P(G) term of the cost model.
	var reads, failedReads int64
	t := time.Now()
	p.sweep, err = timeMedian(func() error {
		reads, failedReads = 0, 0
		return withAsync(st, ssd.AsyncOptions{Latency: lat}, func(dev *ssd.AsyncDevice) error {
			var failed atomic.Int64
			for pg := uint32(0); pg < st.NumPages; {
				n := st.AlignedRange(pg, 32)
				dev.AsyncReadScatter(pg, []int{n}, func(_ int, _ []byte, err error) {
					if err != nil {
						failed.Add(1)
					}
				})
				reads++
				pg += uint32(n)
			}
			dev.Drain()
			failedReads = failed.Load()
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	tr.add(parent, trace, "ssd.sweep", t, time.Now(), nil)
	m.set("ssd.sweep_s", p.sweep.Seconds(), "s")
	m.set("ssd.pages_per_s", ratio(pages, p.sweep.Seconds()), "pages/s")
	m.set("ssd.reads", float64(reads), "count")
	m.set("ssd.failed_reads", float64(failedReads), "count")

	var spans [][]byte // the store's pages, one slice per aligned range
	t = time.Now()
	p.syncSweep, err = timeMedian(func() error {
		spans = spans[:0]
		return withAsync(st, ssd.AsyncOptions{QueueDepth: 1, Latency: lat}, func(dev *ssd.AsyncDevice) error {
			for pg := uint32(0); pg < st.NumPages; {
				n := st.AlignedRange(pg, 16)
				data, err := dev.ReadPages(pg, n)
				if err != nil {
					return err
				}
				spans = append(spans, data)
				pg += uint32(n)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	tr.add(parent, trace, "ssd.sync_sweep", t, time.Now(), nil)
	m.set("ssd.sync_sweep_s", p.syncSweep.Seconds(), "s")

	// storage decode: one DecodeAppend pass over every aligned range, into
	// buffers recycled between passes as the engine does.
	var ms0, ms1 runtime.MemStats
	var arena []uint32
	t = time.Now()
	passes := 0
	p.decode, err = timeMedian(func() error {
		if passes == 1 {
			runtime.ReadMemStats(&ms0)
		}
		passes++
		p.recs, arena = p.recs[:0], arena[:0]
		for _, data := range spans {
			var err error
			if p.recs, arena, err = st.DecodeAppend(p.recs, arena, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	tr.add(parent, trace, "storage.decode", t, time.Now(), nil)
	m.set("storage.decode_s", p.decode.Seconds(), "s")
	m.set("storage.decode_ns_per_edge", ratio(float64(p.decode), float64(e.edges)), "ns/edge")
	m.set("storage.decode_allocs_per_pass", float64(ms1.Mallocs-ms0.Mallocs)/probeRepeats, "count")

	// buffer: the Insert / Lookup / Unpin / Take cycle at the pool capacity
	// the workload's memory budget resolves to.
	budget := engine.Options{MemoryFraction: e.w.lib.MemoryFraction}.Budget(st)
	pool := buffer.NewPool(budget)
	chunk := &buffer.Chunk{NumPages: 1}
	const cycles = 200000
	t = time.Now()
	for i := 0; i < cycles; i++ {
		chunk.FirstPage = uint32(i)
		pool.Insert(chunk)
		pool.Lookup(chunk.FirstPage)
		pool.Unpin(chunk.FirstPage)
		pool.Unpin(chunk.FirstPage)
		pool.Take(chunk.FirstPage)
	}
	m.set("buffer.op_ns", float64(time.Since(t))/cycles, "ns")
	m.set("buffer.overflow_pages", float64(pool.OverflowPages()), "count")
	tr.add(parent, trace, "buffer.cycle", t, time.Now(), map[string]any{"capacity": budget})

	// intersect: Adaptive over n≻(u) ∩ n≻(v) of every oriented edge of the
	// decoded store — the in-memory Cost_CPU of the model.
	p.index()
	var calls, ops, nonEmpty, triangles int64
	t = time.Now()
	p.kernel, err = timeMedian(func() error {
		calls, ops, nonEmpty, triangles = 0, 0, 0, 0
		var dst []uint32
		p.edges(func(_, _ uint32, nu, nv []uint32) {
			calls++
			ops += intersect.MinCost(nu, nv)
			dst = intersect.Adaptive(dst[:0], nu, nv)
			if len(dst) > 0 {
				nonEmpty++
				triangles += int64(len(dst))
			}
		})
		if triangles != e.oracle {
			return fmt.Errorf("intersect probe counted %d triangles, oracle %d", triangles, e.oracle)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.add(parent, trace, "intersect.kernel", t, time.Now(), nil)
	m.set("intersect.kernel_s", p.kernel.Seconds(), "s")
	m.set("intersect.ns_per_op", ratio(float64(p.kernel), float64(ops)), "ns")
	m.set("intersect.calls", float64(calls), "count")
	m.set("intersect.nonempty_ratio", ratio(float64(nonEmpty), float64(calls)), "ratio")

	set := bits.NewSet(st.NumVertices)
	t = time.Now()
	bitmap, err := timeMedian(func() error {
		var dst []uint32
		var hub []uint32 // the n≻(u) the set currently holds
		hubOf := ^uint32(0)
		triangles = 0
		p.edges(func(u, _ uint32, nu, nv []uint32) {
			if u != hubOf {
				for _, x := range hub {
					set.Remove(int(x))
				}
				hub, hubOf = nu, u
				for _, x := range hub {
					set.Add(int(x))
				}
			}
			dst = intersect.AdaptiveBitmap(dst[:0], nv, nu, set)
			triangles += int64(len(dst))
		})
		for _, x := range hub {
			set.Remove(int(x))
		}
		if triangles != e.oracle {
			return fmt.Errorf("bitmap probe counted %d triangles, oracle %d", triangles, e.oracle)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.add(parent, trace, "intersect.bitmap_kernel", t, time.Now(), nil)
	m.set("intersect.bitmap_kernel_s", bitmap.Seconds(), "s")

	// The oracle's listing, reduced to the order-independent checksum the
	// listing op is compared with.
	p.edges(func(u, v uint32, nu, nv []uint32) {
		p.listSum += triangleSum(u, v, intersect.Adaptive(nil, nu, nv))
	})
	return p, nil
}

// withAsync opens the store's portable device under an AsyncDevice, runs
// fn, and closes both.
func withAsync(st *storage.Store, opts ssd.AsyncOptions, fn func(dev *ssd.AsyncDevice) error) error {
	base, err := st.DeviceBackend(ssd.BackendPortable)
	if err != nil {
		return err
	}
	opts.Metrics = metrics.NewCollector()
	dev := ssd.NewAsyncDevice(base, opts)
	err = fn(dev)
	dev.Close()
	if cerr := base.Close(); err == nil {
		err = cerr
	}
	return err
}

// index locates each vertex's record and the start of n≻(v) inside it.
func (p *layerProbe) index() {
	p.byID = make([]int32, p.st.NumVertices)
	for i := range p.byID {
		p.byID[i] = -1
	}
	p.after = make([]int32, len(p.recs))
	for i, r := range p.recs {
		p.byID[r.ID] = int32(i)
		p.after[i] = int32(intersect.UpperBound(r.Adj, r.ID))
	}
}

// edges calls fn for every oriented edge (u, v), v ∈ n≻(u), with both
// successor lists.
func (p *layerProbe) edges(fn func(u, v uint32, nu, nv []uint32)) {
	for i, r := range p.recs {
		nu := r.Adj[p.after[i]:]
		for _, v := range nu {
			j := p.byID[v]
			if j < 0 {
				continue
			}
			fn(r.ID, v, nu, p.recs[j].Adj[p.after[j]:])
		}
	}
}

// opttriRun runs cmd/opttri as a child process on the workload's cell and
// returns its wall time, process start included.
func (e *env) opttriRun(ctx context.Context) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	o := e.w.lib
	algo := "opt"
	if o.Algorithm == opt.OPTSerial {
		algo = "opt-serial"
	}
	cmd := exec.CommandContext(ctx, e.p.opttri, "-store", e.stores[0].Path(), "-algo", algo,
		"-threads", strconv.Itoa(o.Threads), "-mem", strconv.FormatFloat(o.MemoryFraction, 'g', -1, 64),
		"-lat-read", o.Latency.PerRead.String(), "-lat-page", o.Latency.PerPage.String(), "-backend", "portable")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("opttri: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	wall := time.Since(t)
	for _, line := range bytes.Split(stdout.Bytes(), []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 2 && string(f[0]) == "triangles" {
			n, err := strconv.ParseInt(string(f[1]), 10, 64)
			if err != nil || n != e.oracle {
				return wall, fmt.Errorf("opttri reported %q triangles, oracle %d", f[1], e.oracle)
			}
			return wall, nil
		}
	}
	return wall, fmt.Errorf("opttri printed no triangle count")
}
