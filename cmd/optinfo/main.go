// Command optinfo inspects a slotted-page graph store: header metadata,
// degree statistics, page composition, and (with -verify) a full integrity
// check of every invariant the triangulation algorithms rely on.
//
// Usage:
//
//	optinfo -store graph.optstore
//	optinfo -store graph.optstore -verify
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

func main() {
	var (
		store   = flag.String("store", "graph.optstore", "store path")
		verify  = flag.Bool("verify", false, "run the full integrity check")
		backend = flag.String("backend", "", "device backend to probe: portable, native, auto (\"\" = $OPT_BACKEND, then portable)")
	)
	flag.Parse()

	st, err := storage.Open(*store)
	if err != nil {
		fail(err)
	}
	fmt.Printf("store        %s\n", st.Path)
	fmt.Printf("version      %d\n", st.Version())
	fmt.Printf("codec        %s\n", st.CodecName())
	fmt.Printf("page size    %d bytes\n", st.PageSize)
	fmt.Printf("vertices     %d\n", st.NumVertices)
	fmt.Printf("edges        %d\n", st.NumEdges)
	fmt.Printf("data pages   %d (%d bytes)\n", st.NumPages, int64(st.NumPages)*int64(st.PageSize))
	if st.NumVertices > 0 {
		fmt.Printf("avg degree   %.2f\n", 2*float64(st.NumEdges)/float64(st.NumVertices))
	}
	if st.NumEdges > 0 {
		// Stored adjacency is both edge directions, so data bytes per
		// undirected edge divide by |E|.
		fmt.Printf("bytes/edge   %.2f\n", float64(int64(st.NumPages)*int64(st.PageSize))/float64(st.NumEdges))
	}
	if rawPages := st.RawDataPages(); rawPages > 0 && st.NumPages > 0 {
		fmt.Printf("vs raw       %d pages (compression ratio %.2fx)\n",
			rawPages, float64(rawPages)/float64(st.NumPages))
	}

	// Degree distribution summary from the directory (no page I/O).
	maxDeg, isolated := 0, 0
	maxSucc, succSum := 0, int64(0)
	runVerts := 0
	for v := 0; v < st.NumVertices; v++ {
		d := st.DegreeOf(uint32(v))
		if d > maxDeg {
			maxDeg = d
		}
		n := st.SuccOf(uint32(v))
		maxSucc = max(maxSucc, n)
		succSum += int64(n)
		if d == 0 {
			isolated++
		}
		if st.SpanOf(uint32(v)) > 1 {
			runVerts++
		}
	}
	fmt.Printf("max degree   %d\n", maxDeg)
	// |n≻(v)|, what OPT's internal area holds of v; the sum is |E| (Open
	// checked it).
	fmt.Printf("Σ|n≻|        %d\n", succSum)
	fmt.Printf("max |n≻|     %d\n", maxSucc)
	fmt.Printf("isolated     %d\n", isolated)
	fmt.Printf("run records  %d (adjacency lists spanning multiple pages)\n", runVerts)

	// Probe the requested device backend: what the open negotiated (O_DIRECT,
	// io_uring) on this store layout and kernel, with the refusal reasons.
	b, err := ssd.ParseBackend(*backend)
	if err != nil {
		fail(err)
	}
	dev, err := st.DeviceBackend(b)
	if err != nil {
		fail(err)
	}
	defer func() { _ = dev.Close() }() // read-only handle; process exits next
	if ip, ok := dev.(ssd.InfoProvider); ok {
		info := ip.BackendInfo()
		fmt.Printf("backend      %s (native available: %v)\n", info.Backend, ssd.NativeAvailable())
		direct := fmt.Sprintf("%v (alignment %d)", info.Direct, info.Align)
		if !info.Direct && info.DirectReason != "" {
			direct = fmt.Sprintf("false (%s)", info.DirectReason)
		}
		fmt.Printf("direct I/O   %s\n", direct)
		ring := fmt.Sprint(info.Ring)
		if info.Ring {
			ring = fmt.Sprintf("true (%d entries)", info.RingDepth)
		} else if info.RingReason != "" {
			ring = fmt.Sprintf("false (%s)", info.RingReason)
		}
		fmt.Printf("io_uring     %s\n", ring)
	} else {
		fmt.Printf("backend      %s (native available: %v)\n", ssd.BackendPortable, ssd.NativeAvailable())
	}

	if !*verify {
		return
	}
	rep, err := storage.Verify(st, dev)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optinfo: INTEGRITY FAILURE: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("verify       OK: %d records, %d edges, symmetric, sorted, split, aligned\n",
		rep.Vertices, rep.Edges)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "optinfo:", err)
	os.Exit(1)
}
