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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/cmd/internal/cli"
	"github.com/optlab/opt/internal/core"
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

	res, err := triangulate(ctx, st, opts, *list)
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

// triangulate runs opts over st, listing the triangles in the nested
// binary form (core.NewNestedWriter) to the file at list when it is not
// empty. The listing is flushed and closed before it returns, on every
// path, so a partial run's file holds exactly its partial count; a failed
// close joins the run's error.
func triangulate(ctx context.Context, st *opt.Store, opts opt.Options, list string) (*opt.Result, error) {
	if list == "" {
		return opt.TriangulateContext(ctx, st, opts)
	}
	f, err := os.Create(list)
	if err != nil {
		return nil, err
	}
	nw := core.NewNestedWriter(f)
	opts.OnTriangles = nw.Emit
	res, err := opt.TriangulateContext(ctx, st, opts)
	if werr := errors.Join(nw.Close(), f.Close()); werr != nil {
		err = errors.Join(err, fmt.Errorf("writing %s: %w", list, werr))
	}
	return res, err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "opttri:", err)
	os.Exit(1)
}
