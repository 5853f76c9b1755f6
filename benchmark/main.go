// Command benchmark is the repository's benchmark: one run sets a workload
// up from a seed, drives it closed-loop for a fixed time, checks every
// result against an in-memory oracle and prints every metric by name with
// its unit. BENCHMARK.json at the repository root declares the workloads
// and metrics; README.md beside this file is the catalogue.
//
//	bash benchmark/run.sh --workload dense-cpu --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the separate
// traced run that reports the per-layer metrics and writes the span file.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/optlab/opt/internal/diskio"
)

// runLimit bounds a whole run, set-up included; the driver allows 180 s.
const runLimit = 170 * time.Second

// checkout is the repository root: run.sh starts the benchmark there.
const checkout = "."

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow build or daemon start does not decide it.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: exactly these four keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dense-cpu, sparse-io, sparse-dv, serve-mix")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same graph and op schedule")
		seconds = flag.Int("seconds", 20, "length of the timed section")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics and span file")
		repeat  = flag.Int("repeat", 0, "run every workload N times on N seeds (child processes) and print each metric's spread against its bound")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *repeat > 0 {
		if err := runRepeat(ctx, os.Stdout, checkout, *repeat, *seed, *seconds); err != nil {
			fail(err)
		}
		return
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	p, err := locate(checkout)
	if err != nil {
		fail(err)
	}
	printHeader(os.Stdout, w, checkout, *seed, *seconds, *trace)
	var rep report
	if *trace == 0 {
		rep, err = runEndToEnd(ctx, os.Stdout, w, p, *seed, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = runTraced(ctx, os.Stdout, w, p, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n", line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// locate resolves the binaries run.sh built and the scratch directory, all
// inside the checkout, so a run reads and writes nothing outside it.
func locate(root string) (paths, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return paths{}, err
	}
	p := paths{
		optd:   filepath.Join(abs, ".bench_build", "bin", "optd"),
		opttri: filepath.Join(abs, ".bench_build", "bin", "opttri"),
		out:    filepath.Join(abs, "benchmark", "out"),
	}
	p.work = filepath.Join(p.out, "work")
	for _, b := range []string{p.optd, p.opttri} {
		if _, err := os.Stat(b); err != nil {
			return paths{}, fmt.Errorf("%w (benchmark/run.sh builds it)", err)
		}
	}
	return p, os.MkdirAll(p.work, 0o755)
}

func printHeader(w io.Writer, wl workload, root string, seed int64, seconds, trace int) {
	fmt.Fprintf(w, "# opt benchmark: workload=%s seed=%d seconds=%d trace=%d\n", wl.name, seed, seconds, trace)
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s commit=%s loadavg=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(root), loadAverage())
	fmt.Fprintf(w, "# input: %s-density R-MAT, %d vertices, codecs %s, page %d, threads %d, memory fraction %g, latency %v/read %v/page\n",
		wl.dataset, wl.vertices, strings.Join(wl.codecs, "+"), pageSize, wl.lib.Threads, wl.lib.MemoryFraction,
		wl.lib.Latency.PerRead, wl.lib.Latency.PerPage)
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit(root string) string {
	head, err := readSmallFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if head, err = readSmallFile(filepath.Join(root, ".git", ref)); err != nil {
			return "unknown"
		}
	}
	if len(head) > 12 {
		head = head[:12]
	}
	return head
}

func loadAverage() string {
	s, err := readSmallFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(s); len(f) >= 3 {
		return strings.Join(f[:3], "/")
	}
	return s
}

func readSmallFile(path string) (string, error) {
	f, err := diskio.OpenRaw(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read-only handle
	b, err := io.ReadAll(io.LimitReader(f, 4096))
	return strings.TrimSpace(string(b)), err
}

// prepare is one complete set-up: stores, oracle, daemons for the serve
// path, and the warm-up ops. It returns the op to time and its cleanup.
func prepare(ctx context.Context, w workload, p paths, seed int64, tr *tracer, parent int) (*env, opFunc, func(), error) {
	e, err := setUp(ctx, w, p, seed, tr, parent)
	if err != nil {
		return nil, nil, nil, err
	}
	op, done := e.libraryOp(w.lib), func() {}
	if w.serve {
		t := time.Now()
		if err := e.startFleet(ctx); err != nil {
			e.close()
			return nil, nil, nil, err
		}
		tr.add(parent, w.name+"/setup", "optd.start", t, time.Now(), nil)
		op, done = e.serveOpFunc(seed)
	}
	t := time.Now()
	if err := warmUp(ctx, w.clients(), op); err != nil {
		done()
		e.close()
		return nil, nil, nil, err
	}
	tr.add(parent, w.name+"/setup", "warmup", t, time.Now(), nil)
	return e, op, done, nil
}

// runEndToEnd is the untraced run behind the end-to-end metrics.
func runEndToEnd(ctx context.Context, out io.Writer, w workload, p paths, seed int64, d time.Duration) (report, error) {
	var (
		e      *env
		op     opFunc
		done   func()
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			done()
			e.close()
		}
		t := time.Now()
		var err error
		if e, op, done, err = prepare(ctx, w, p, seed, nil, 0); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer e.close()
	defer done()

	pids := []int{0}
	if w.serve {
		pids = e.fleet.pids()
	}
	debug.FreeOSMemory()
	rssScope := "timed section"
	for _, pid := range pids {
		if err := resetPeakRSS(pid); err != nil {
			rssScope = "whole process lifetime (clear_refs refused: " + err.Error() + ")"
			break
		}
	}

	outs, wall := measure(ctx, w.clients(), d, 0, op, nil, nil)
	rss, err := peakRSSMiB(pids)
	if err != nil {
		return report{}, err
	}
	if err := ctx.Err(); err != nil {
		return report{}, err
	}

	var lats []float64
	var edges int64
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			if failed == 0 {
				fmt.Fprintf(out, "# first failed op: %v\n", o.err)
			}
			failed++
			continue
		}
		lats = append(lats, ms(o.lat))
		edges += o.edges
	}
	fmt.Fprintf(out, "# graph: %d edges, digest %s, oracle %d triangles\n", e.edges, e.digest[:16], e.oracle)
	fmt.Fprintf(out, "# timed section: %.3f s, %d ops attempted, %d failed (failed_frac %.4f), %d latency samples\n",
		wall.Seconds(), len(outs), failed, ratio(float64(failed), float64(len(outs))), len(lats))
	fmt.Fprintf(out, "# setup_s is the median of %d set-ups: %.3f; peak_rss_mb covers the %s\n", setupRepeats, setups, rssScope)
	rep := report{
		Correct: failed == 0 && len(outs) > 0, Attempted: len(outs), Failed: failed,
		Metrics: map[string]metricValue{
			"setup_s":              {median(setups), "s"},
			"run_p50_ms":           {median(lats), "ms"},
			"run_p90_ms":           {percentile(lats, 90), "ms"},
			"edges_per_s":          {ratio(float64(edges), wall.Seconds()), "edges/s"},
			"peak_rss_mb":          {rss, "MiB"},
			"store_bytes_per_edge": {e.storeBytesPerEdge(), "B/edge"},
		},
	}
	printMetrics(out, rep.Metrics)
	return rep, nil
}

func printMetrics(w io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
