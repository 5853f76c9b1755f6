// Command opttri triangulates a slotted-page graph store with any of the
// implemented disk-based methods and reports the count, timings and I/O
// statistics. SIGINT/SIGTERM (or -timeout expiring) cancels the run
// gracefully: the partial result accumulated so far is still reported, and
// the exit status is non-zero.
//
// Usage:
//
//	opttri -store graph.optstore -algo opt -threads 6 -mem 0.15
//	opttri -store graph.optstore -algo mgt -list triangles.bin
//	opttri -store graph.optstore -algo cc-seq -timeout 30s -progress
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/cmd/internal/cli"
	"github.com/optlab/opt/internal/engine"
)

func main() {
	var (
		store    = flag.String("store", "graph.optstore", "input store path")
		algo     = flag.String("algo", "opt", "algorithm: opt, opt-serial, mgt, cc-seq, cc-ds, graphchi")
		model    = flag.String("model", "edge", "iterator model for opt: edge, vertex, mgt")
		threads  = flag.Int("threads", 2, "worker threads")
		mem      = flag.Float64("mem", 0.15, "memory budget as a fraction of the graph size")
		memPages = flag.Int("mempages", 0, "memory budget in pages (overrides -mem)")
		list     = flag.String("list", "", "write triangles (nested binary representation) to this file")
		perRead  = flag.Duration("lat-read", 0, "simulated per-read device latency")
		perPage  = flag.Duration("lat-page", 0, "simulated per-page device latency")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
		progress = flag.Bool("progress", false, "print per-iteration progress to stderr")
		codec    = flag.String("codec", "", "require the store's page codec to match (\"\" = any)")
		backend  = flag.String("backend", "", "device backend: portable, native, auto (\"\" = $OPT_BACKEND, then portable)")
	)
	flag.Parse()

	algorithm, err := parseAlgo(*algo)
	if err != nil {
		fail(err)
	}
	st, err := opt.OpenStore(*store)
	if err != nil {
		fail(err)
	}

	// SIGINT/SIGTERM (or the -timeout deadline) cancel the context; the run
	// winds down within one iteration and the partial result is reported
	// below.
	ctx, stop := cli.SignalContext(context.Background(), *timeout)
	defer stop()

	opts := opt.Options{
		Algorithm:      algorithm,
		Threads:        *threads,
		MemoryFraction: *mem,
		MemoryPages:    *memPages,
		Latency:        opt.DeviceLatency{PerRead: *perRead, PerPage: *perPage},
		Codec:          *codec,
		Backend:        *backend,
	}
	if opts.Model, err = engine.ParseModel(*model); err != nil {
		fail(err)
	}
	if *progress {
		opts.OnEvent = func(e opt.Event) {
			if e.Kind == opt.EventIterationEnd {
				fmt.Fprintf(os.Stderr, "opttri: iteration %d done: %d triangles in %v\n", e.Iteration, e.N, e.Elapsed)
			}
		}
	}

	var lf *os.File
	var mu sync.Mutex
	if *list != "" {
		lf, err = os.Create(*list)
		if err != nil {
			fail(err)
		}
		defer lf.Close()
		bw := newNestedFileWriter(lf)
		opts.OnTriangles = func(u, v uint32, ws []uint32) {
			mu.Lock()
			bw.emit(u, v, ws)
			mu.Unlock()
		}
		defer bw.flush()
	}

	res, err := opt.TriangulateContext(ctx, st, opts)
	if err != nil && res == nil {
		fail(err)
	}
	if err != nil {
		// Cancelled or failed mid-run: report what completed, then exit
		// non-zero so scripts can tell a partial count from a full one.
		reason := cli.PartialReason(err, *timeout)
		fmt.Fprintf(os.Stderr, "opttri: %s: %v\n", reason, err)
		reportPartial(os.Stdout, reason)
	}
	report(os.Stdout, res)
	if err != nil {
		os.Exit(1)
	}
}

// reportPartial emits the status line that precedes a partial report, so
// scripts can tell a partial count from a full one.
func reportPartial(w io.Writer, reason string) {
	fmt.Fprintf(w, "status        partial (%s)\n", reason)
}

func report(w io.Writer, res *opt.Result) {
	fmt.Fprintf(w, "algorithm     %v\n", res.Algorithm)
	fmt.Fprintf(w, "triangles     %d\n", res.Triangles)
	fmt.Fprintf(w, "elapsed       %v\n", res.Elapsed)
	fmt.Fprintf(w, "iterations    %d\n", res.Iterations)
	fmt.Fprintf(w, "pages read    %d\n", res.PagesRead)
	fmt.Fprintf(w, "pages written %d\n", res.PagesWritten)
	fmt.Fprintf(w, "pages reused  %d\n", res.ReusedPages)
	fmt.Fprintf(w, "intersect ops %d\n", res.IntersectOps)
}

func parseAlgo(s string) (opt.Algorithm, error) {
	switch s {
	case "opt":
		return opt.OPT, nil
	case "opt-serial":
		return opt.OPTSerial, nil
	case "mgt":
		return opt.MGT, nil
	case "cc-seq":
		return opt.CCSeq, nil
	case "cc-ds":
		return opt.CCDS, nil
	case "graphchi":
		return opt.GraphChiTri, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

// nestedFileWriter buffers nested records into a file in the same compact
// binary form the library's NestedWriter uses.
type nestedFileWriter struct {
	f   *os.File
	buf []byte
}

func newNestedFileWriter(f *os.File) *nestedFileWriter {
	return &nestedFileWriter{f: f, buf: make([]byte, 0, 1<<20)}
}

func (w *nestedFileWriter) emit(u, v uint32, ws []uint32) {
	w.buf = appendU32(w.buf, u)
	w.buf = appendU32(w.buf, v)
	w.buf = appendU32(w.buf, uint32(len(ws)))
	for _, x := range ws {
		w.buf = appendU32(w.buf, x)
	}
	if len(w.buf) >= 1<<20 {
		w.flush()
	}
}

func (w *nestedFileWriter) flush() {
	if len(w.buf) > 0 {
		if _, err := w.f.Write(w.buf); err != nil {
			fail(err)
		}
		w.buf = w.buf[:0]
	}
}

func appendU32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "opttri:", err)
	os.Exit(1)
}
