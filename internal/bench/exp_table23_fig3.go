package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/core"
	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// fig3Datasets are the four datasets of Figures 3–6 (YAHOO is Table 6's).
var fig3Datasets = []string{"lj", "orkut", "twitter", "uk"}

// bufferSweep is the 5%–25% memory-budget sweep of Figures 3a and 5.
var bufferSweep = []float64{0.05, 0.10, 0.15, 0.20, 0.25}

// Table2 reports the dataset statistics (paper Table 2) for the proxies.
func Table2(h *Harness) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Basic statistics on the datasets (R-MAT proxies; paper originals in parentheses)",
		Header: []string{"dataset", "|V|", "|E|", "#triangles", "density", "paper |V|", "paper |E|", "paper #tri"},
	}
	for _, d := range gen.Datasets {
		g, err := h.proxy(d.Name)
		if err != nil {
			return nil, err
		}
		tris := graph.CountTrianglesReference(g)
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprint(g.NumVertices()),
			fmt.Sprint(g.NumEdges()),
			fmt.Sprint(tris),
			fmt.Sprintf("%.1f", float64(g.NumEdges())/float64(g.NumVertices())),
			fmt.Sprint(d.PaperVertices),
			fmt.Sprint(d.PaperEdges),
			fmt.Sprint(d.PaperTris),
		})
	}
	t.Notes = append(t.Notes, "proxies preserve |E|/|V| density at laptop scale (DESIGN.md §3)")
	return t, nil
}

// Fig3a measures the relative elapsed time of OPT_serial versus the ideal
// method while sweeping the buffer from 5% to 25% of the graph size.
func Fig3a(h *Harness) (*Table, error) {
	t := &Table{
		ID:     "fig3a",
		Title:  "Relative elapsed time of OPT_serial vs buffer size (1.00 = ideal)",
		Header: []string{"dataset", "5%", "10%", "15%", "20%", "25%"},
	}
	for _, name := range fig3Datasets {
		g, st, err := h.proxyStore(name)
		if err != nil {
			return nil, err
		}
		ideal, err := best(repetitions, func() (*runResult, error) { return h.runIdeal(g, st) })
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, frac := range bufferSweep {
			frac := frac
			res, err := best(repetitions, func() (*runResult, error) {
				return h.runOPTSerial(st, budget(st, frac), nil)
			})
			if err != nil {
				return nil, err
			}
			if res.Triangles != ideal.Triangles {
				return nil, fmt.Errorf("fig3a %s@%.0f%%: %d != ideal %d", name, frac*100, res.Triangles, ideal.Triangles)
			}
			row = append(row, fmtRatio(float64(res.Elapsed)/float64(ideal.Elapsed)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: ≤1.07 at the 15% elbow, sometimes <1 (negative overhead via the Δin page-reuse credit)")
	return t, nil
}

// Fig3b compares OPT_serial (15% buffer) against the in-memory methods
// (including their load time), relative to ideal.
func Fig3b(h *Harness) (*Table, error) {
	t := &Table{
		ID:     "fig3b",
		Title:  "Relative elapsed time of OPT_serial and in-memory methods (1.00 = ideal = EdgeIterator)",
		Header: []string{"dataset", "EdgeIter", "VertexIter", "AYZ", "OPT_serial@15%"},
	}
	for _, name := range fig3Datasets {
		g, st, err := h.proxyStore(name)
		if err != nil {
			return nil, err
		}
		ideal, err := best(repetitions, func() (*runResult, error) { return h.runIdeal(g, st) })
		if err != nil {
			return nil, err
		}
		rel := func(r *runResult) string { return fmtRatio(float64(r.Elapsed) / float64(ideal.Elapsed)) }

		vi, err := best(repetitions, func() (*runResult, error) { return h.runInMemory(g, st, "vertex") })
		if err != nil {
			return nil, err
		}
		ayz, err := best(repetitions, func() (*runResult, error) { return h.runInMemory(g, st, "ayz") })
		if err != nil {
			return nil, err
		}
		optS, err := best(repetitions, func() (*runResult, error) { return h.runOPTSerial(st, budget(st, 0.15), nil) })
		if err != nil {
			return nil, err
		}
		for _, r := range []*runResult{vi, ayz, optS} {
			if r.Triangles != ideal.Triangles {
				return nil, fmt.Errorf("fig3b %s: count mismatch (%d vs %d)", name, r.Triangles, ideal.Triangles)
			}
		}
		t.Rows = append(t.Rows, []string{name, "1.00", rel(vi), rel(ayz), rel(optS)})
	}
	t.Notes = append(t.Notes,
		"paper: EdgeIterator fastest in memory; VertexIterator ≈1.2×; AYZ slowest despite lower asymptotic bound")
	return t, nil
}

// Table3 measures output-writing times: the difference between a
// triangle-listing run (nested representation to a second file) and the
// counting-only run, for OPT_serial, MGT and CC-Seq.
func Table3(h *Harness) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Output writing times (listing run − counting run)",
		Header: []string{"method", "lj", "orkut", "twitter", "uk"},
	}
	type listedRunner func(st *storage.Store, out core.Output) (*runResult, error)
	methods := []struct {
		name string
		run  listedRunner
	}{
		{"OPT_serial", func(st *storage.Store, out core.Output) (*runResult, error) {
			return h.runOPTSerial(st, budget(st, 0.15), out)
		}},
		{"MGT", func(st *storage.Store, out core.Output) (*runResult, error) {
			return h.runMGT(st, budget(st, 0.15), out)
		}},
		{"CC-Seq", func(st *storage.Store, out core.Output) (*runResult, error) {
			return h.runCC(st, "CC-Seq", budget(st, 0.15), out)
		}},
	}
	// Output-device write latency: flash writes cost several times reads.
	writeLat := ssd.Latency{PerRead: 4 * h.cfg.Latency.PerRead, PerPage: 4 * h.cfg.Latency.PerPage}
	for _, m := range methods {
		row := []string{m.name}
		for _, name := range fig3Datasets {
			_, st, err := h.proxyStore(name)
			if err != nil {
				return nil, err
			}
			path := filepath.Join(h.workDir, fmt.Sprintf("out-%s-%s.tri", m.name, name))
			sink, err := newListingSink(path, m.name == "OPT_serial", writeLat, h.cfg.PageSize)
			if err != nil {
				return nil, err
			}
			listed, err := m.run(st, sink)
			if err != nil {
				return nil, err
			}
			if err := sink.Close(); err != nil {
				return nil, err
			}
			os.Remove(path)
			if listed.Triangles == 0 {
				return nil, fmt.Errorf("table3 %s/%s: no triangles listed", m.name, name)
			}
			row = append(row, fmtDur(sink.BlockedTime()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"cells are the time the triangulation threads spent blocked on output-device writes",
		"OPT_serial's sink flushes asynchronously on a background goroutine (write I/O overlaps CPU);",
		"MGT and CC-Seq write synchronously, so every flush stalls the computation")
	return t, nil
}

// listingSink is the Table 3 output sink: a NestedWriter over either a
// synchronous file or an asynchronous background flusher.
type listingSink struct {
	nw       *core.NestedWriter
	f        *diskio.RawFile
	async    *asyncFileWriter
	throttle *throttledWriter
}

func newListingSink(path string, asyncFlush bool, lat ssd.Latency, pageSize int) (*listingSink, error) {
	f, err := diskio.CreateRaw(path)
	if err != nil {
		return nil, err
	}
	s := &listingSink{f: f}
	// The output goes to a second device (§5.2); its write latency is
	// simulated like the input device's so the overlap effect is visible
	// deterministically.
	tw := &throttledWriter{w: f, lat: lat, pageSize: pageSize}
	s.throttle = tw
	if asyncFlush {
		s.async = newAsyncFileWriter(tw)
		s.nw = core.NewNestedWriter(s.async)
	} else {
		s.nw = core.NewNestedWriter(tw)
	}
	return s, nil
}

// throttledWriter charges the device latency model per page written.
type throttledWriter struct {
	w        io.Writer
	lat      ssd.Latency
	pageSize int
	pending  int
	busy     atomic.Int64
}

// Write implements io.Writer.
func (t *throttledWriter) Write(p []byte) (int, error) {
	start := time.Now()
	t.pending += len(p)
	pages := t.pending / t.pageSize
	if pages > 0 {
		t.pending -= pages * t.pageSize
		if c := t.lat.Cost(pages); c > 0 {
			time.Sleep(c)
		}
	}
	n, err := t.w.Write(p)
	t.busy.Add(int64(time.Since(start)))
	return n, err
}

// BusyTime returns the cumulative wall time spent inside Write.
func (t *throttledWriter) BusyTime() time.Duration { return time.Duration(t.busy.Load()) }

// Emit implements core.Output.
func (s *listingSink) Emit(u, v uint32, ws []uint32) { s.nw.Emit(u, v, ws) }

// BlockedTime returns the time the emitting threads spent blocked on
// output writes: the throttle's busy time for synchronous sinks, or the
// channel-send stall time for the asynchronous sink.
func (s *listingSink) BlockedTime() time.Duration {
	if s.async != nil {
		return s.async.SendBlocked()
	}
	return s.throttle.BusyTime()
}

// Close flushes and closes the sink.
func (s *listingSink) Close() error {
	err := s.nw.Close()
	if s.async != nil {
		if aerr := s.async.Close(); err == nil {
			err = aerr
		}
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// asyncFileWriter queues writes to a background goroutine, modelling the
// paper's asynchronous write requests that overlap output I/O with CPU.
type asyncFileWriter struct {
	ch      chan []byte
	done    chan error
	blocked atomic.Int64
}

func newAsyncFileWriter(f io.Writer) *asyncFileWriter {
	w := &asyncFileWriter{ch: make(chan []byte, 256), done: make(chan error, 1)}
	go func() {
		var err error
		for buf := range w.ch {
			if err == nil {
				_, err = f.Write(buf)
			}
		}
		w.done <- err
	}()
	return w
}

// Write implements io.Writer; it hands the data to the flusher goroutine.
func (w *asyncFileWriter) Write(p []byte) (int, error) {
	cp := make([]byte, len(p))
	copy(cp, p)
	start := time.Now()
	w.ch <- cp
	w.blocked.Add(int64(time.Since(start)))
	return len(p), nil
}

// SendBlocked returns the time emitters spent waiting on the flusher queue.
func (w *asyncFileWriter) SendBlocked() time.Duration {
	return time.Duration(w.blocked.Load())
}

// Close waits for the flusher to drain.
func (w *asyncFileWriter) Close() error {
	close(w.ch)
	return <-w.done
}
