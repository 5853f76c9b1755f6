// Command optbench regenerates the tables and figures of the paper's
// evaluation (§5) at laptop scale, printing paper-style rows. See
// DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// SIGINT/SIGTERM (or -timeout expiring) cancels the sweep gracefully:
// experiments already completed are kept, the in-flight one winds down
// within an iteration, and the JSON report still covers everything that
// finished.
//
// Usage:
//
//	optbench -exp all                # every experiment (takes a while)
//	optbench -exp fig5 -scale 0.5    # one experiment, smaller workloads
//	optbench -list                   # list experiment ids
//	optbench -exp all -json out.json # machine-readable results
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/optlab/opt/cmd/internal/cli"
	"github.com/optlab/opt/internal/bench"
	"github.com/optlab/opt/internal/ssd"
)

// jsonReport is the machine-readable shape written by -json.
type jsonReport struct {
	GeneratedAt time.Time        `json:"generated_at"`
	Config      jsonConfig       `json:"config"`
	Partial     bool             `json:"partial,omitempty"`
	Reason      string           `json:"reason,omitempty"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonConfig struct {
	Scale    float64 `json:"scale"`
	Threads  int     `json:"threads"`
	PageSize int     `json:"page_size"`
	LatRead  string  `json:"lat_read"`
	LatPage  string  `json:"lat_page"`
	Backend  string  `json:"backend,omitempty"`
}

type jsonExperiment struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Seconds float64    `json:"seconds"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table2..table7, fig3a..fig7c) or 'all'")
		scale    = flag.Float64("scale", 1.0, "workload scale multiplier")
		threads  = flag.Int("threads", 6, "maximum CPU cores exercised")
		pageSize = flag.Int("pagesize", 4096, "store page size in bytes")
		latRead  = flag.Duration("lat-read", 20*time.Microsecond, "simulated per-read device latency")
		latPage  = flag.Duration("lat-page", 5*time.Microsecond, "simulated per-page device latency")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		format   = flag.String("format", "text", "output format: text or csv")
		timeout  = flag.Duration("timeout", 0, "cancel the sweep after this duration (0 = no limit)")
		jsonOut  = flag.String("json", "BENCH.json", "write machine-readable results to this file ('' disables)")
		baseline = flag.String("baseline", "", "compare the pages experiment against this committed BENCH_pages.json")
		devBase  = flag.String("device-baseline", "", "compare the device experiment against this committed BENCH_device.json")
		regress  = flag.Float64("regress", 0.15, "fail if elapsed_ms regresses by more than this fraction vs a baseline")
		// Real cold-cache I/O is noisier than CPU-bound decode, so the
		// device ratio gate gets more slack than the pages gate.
		devRegress = flag.Float64("device-regress", 0.25, "fail if the device experiment's native/portable elapsed ratio regresses by more than this fraction vs the -device-baseline")
		backend  = flag.String("backend", "", "device backend every experiment opens stores through: portable, native, auto ('' = $OPT_BACKEND, then portable)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Experiments(), "\n"))
		return
	}

	ctx, stop := cli.SignalContext(context.Background(), *timeout)
	defer stop()

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Threads = *threads
	cfg.PageSize = *pageSize
	cfg.Latency = ssd.Latency{PerRead: *latRead, PerPage: *latPage}
	cfg.Backend = *backend
	cfg.Context = ctx

	h, err := bench.NewHarness(cfg)
	if err != nil {
		fail(err)
	}
	defer h.Close()

	report := jsonReport{
		Experiments: []jsonExperiment{}, // renders as [] even when none complete
		Config: jsonConfig{
			Scale:    cfg.Scale,
			Threads:  cfg.Threads,
			PageSize: cfg.PageSize,
			LatRead:  cfg.Latency.PerRead.String(),
			LatPage:  cfg.Latency.PerPage.String(),
			Backend:  cfg.Backend,
		},
	}

	ids := bench.Experiments()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	var runErr error
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		t, err := h.Table(id)
		if err != nil {
			// A cancelled sweep keeps the experiments already done; any
			// other failure aborts as before.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				runErr = err
				break
			}
			fail(err)
		}
		elapsed := time.Since(start)
		switch *format {
		case "csv":
			err = t.RenderCSV(os.Stdout)
		default:
			err = t.Render(os.Stdout)
		}
		if err != nil {
			fail(err)
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID:      t.ID,
			Title:   t.Title,
			Seconds: elapsed.Seconds(),
			Header:  t.Header,
			Rows:    t.Rows,
			Notes:   t.Notes,
		})
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, elapsed.Round(time.Millisecond))
	}

	if runErr != nil {
		report.Partial = true
		report.Reason = cli.PartialReason(runErr, *timeout)
		fmt.Fprintf(os.Stderr, "optbench: %s: %d of %d experiments completed\n",
			report.Reason, len(report.Experiments), len(ids))
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &report); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "[results written to %s]\n", *jsonOut)
		// The page-codec experiment additionally lands in its own file; it is the
		// committed baseline the -baseline flag compares against.
		if pr := experimentOnly(&report, "pages"); pr != nil {
			path := filepath.Join(filepath.Dir(*jsonOut), "BENCH_pages.json")
			if err := writeJSON(path, pr); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "[page-codec results written to %s]\n", path)
		}
		// So does the device-backend experiment, the -device-baseline target.
		if dr := experimentOnly(&report, "device"); dr != nil {
			path := filepath.Join(filepath.Dir(*jsonOut), "BENCH_device.json")
			if err := writeJSON(path, dr); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "[device-backend results written to %s]\n", path)
		}
	}
	if *baseline != "" {
		if err := compareBaseline(&report, *baseline, *regress, "pages", []string{"dataset", "codec"}); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "[pages within %.0f%% of baseline %s]\n", *regress*100, *baseline)
	}
	if *devBase != "" {
		if err := compareDeviceBaseline(&report, *devBase, *devRegress); err != nil {
			fail(err)
		}
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// experimentOnly extracts one experiment into a standalone report sharing
// the sweep's config, or returns nil when the sweep did not run it.
func experimentOnly(r *jsonReport, id string) *jsonReport {
	for _, e := range r.Experiments {
		if e.ID == id {
			return &jsonReport{
				Config:      r.Config,
				Partial:     r.Partial,
				Reason:      r.Reason,
				Experiments: []jsonExperiment{e},
			}
		}
	}
	return nil
}

// elapsedByKey indexes an experiment's elapsed_ms column by the given key
// columns joined with "/", using the header so column order is not
// load-bearing.
func elapsedByKey(e *jsonExperiment, keyCols []string) (map[string]float64, error) {
	col := map[string]int{}
	for i, h := range e.Header {
		col[h] = i
	}
	for _, want := range append([]string{"elapsed_ms"}, keyCols...) {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("%s experiment has no %q column (header %v)", e.ID, want, e.Header)
		}
	}
	out := make(map[string]float64, len(e.Rows))
	for _, row := range e.Rows {
		var ms float64
		if _, err := fmt.Sscanf(row[col["elapsed_ms"]], "%g", &ms); err != nil {
			return nil, fmt.Errorf("%s row %v: bad elapsed_ms: %v", e.ID, row, err)
		}
		parts := make([]string, len(keyCols))
		for i, k := range keyCols {
			parts[i] = row[col[k]]
		}
		out[strings.Join(parts, "/")] = ms
	}
	return out, nil
}

// compareBaseline compares one of the sweep's experiments against its
// committed baseline file and errors when any row's elapsed time (keyed by
// keyCols) regressed by more than tol, or when the configs are not
// comparable. Rows only present on one side are reported but not fatal, so
// adding a dataset, codec or backend does not require regenerating the
// baseline in the same change.
func compareBaseline(r *jsonReport, path string, tol float64, id string, keyCols []string) error {
	cur := experimentOnly(r, id)
	if cur == nil {
		return fmt.Errorf("baseline comparison requested but the sweep did not run the %s experiment (add -exp %s)", id, id)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base jsonReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	bexp := experimentOnly(&base, id)
	if bexp == nil {
		return fmt.Errorf("%s has no %s experiment", path, id)
	}
	if base.Config != r.Config {
		return fmt.Errorf("baseline config %+v does not match run config %+v; rerun with matching -scale/-pagesize/-threads/-lat-*/-backend or regenerate %s",
			base.Config, r.Config, path)
	}
	got, err := elapsedByKey(&cur.Experiments[0], keyCols)
	if err != nil {
		return err
	}
	want, err := elapsedByKey(&bexp.Experiments[0], keyCols)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	var regressions []string
	for key, baseMs := range want {
		curMs, ok := got[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "optbench: baseline row %s missing from this run\n", key)
			continue
		}
		if baseMs > 0 && curMs > baseMs*(1+tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.3fms vs baseline %.3fms (+%.0f%%)", key, curMs, baseMs, (curMs/baseMs-1)*100))
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			fmt.Fprintf(os.Stderr, "optbench: row %s not in baseline (new %s?)\n", key, strings.Join(keyCols, "/"))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%s regressed beyond %.0f%%:\n  %s", id, tol*100, strings.Join(regressions, "\n  "))
	}
	return nil
}

// backendTotals sums the device experiment's elapsed_ms per backend.
func backendTotals(e *jsonExperiment) (map[string]float64, error) {
	col := map[string]int{}
	for i, h := range e.Header {
		col[h] = i
	}
	for _, want := range []string{"backend", "elapsed_ms"} {
		if _, ok := col[want]; !ok {
			return nil, fmt.Errorf("device experiment has no %q column (header %v)", want, e.Header)
		}
	}
	out := map[string]float64{}
	for _, row := range e.Rows {
		var ms float64
		if _, err := fmt.Sscanf(row[col["elapsed_ms"]], "%g", &ms); err != nil {
			return nil, fmt.Errorf("device row %v: bad elapsed_ms: %v", row, err)
		}
		out[row[col["backend"]]] += ms
	}
	return out, nil
}

// deviceRatio reduces a device experiment to the native/portable aggregate
// wall-time ratio, the machine-portable figure of merit: absolute device
// times differ wildly across disks, but how the two backends compare on the
// SAME disk in the same run transfers. The ok result is false when the run
// has no native rows (non-Linux), which disables the comparison rather
// than failing it.
func deviceRatio(e *jsonExperiment) (ratio float64, ok bool, err error) {
	totals, err := backendTotals(e)
	if err != nil {
		return 0, false, err
	}
	native, haveNative := totals["native"]
	portable, havePortable := totals["portable"]
	if !haveNative {
		return 0, false, nil
	}
	if !havePortable || portable <= 0 {
		return 0, false, fmt.Errorf("device experiment has no portable rows to compare against")
	}
	return native / portable, true, nil
}

// compareDeviceBaseline gates the native backend's advantage over the
// portable pool: the fresh run's native/portable aggregate elapsed ratio
// must not exceed the committed baseline's ratio by more than tol. Unlike
// the pages comparison this never compares absolute milliseconds — real
// cold-cache device time does not transfer between machines, the
// same-run backend ratio does.
func compareDeviceBaseline(r *jsonReport, path string, tol float64) error {
	cur := experimentOnly(r, "device")
	if cur == nil {
		return fmt.Errorf("baseline comparison requested but the sweep did not run the device experiment (add -exp device)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base jsonReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	bexp := experimentOnly(&base, "device")
	if bexp == nil {
		return fmt.Errorf("%s has no device experiment", path)
	}
	if base.Config != r.Config {
		return fmt.Errorf("baseline config %+v does not match run config %+v; rerun with matching -scale/-pagesize/-threads/-lat-*/-backend or regenerate %s",
			base.Config, r.Config, path)
	}
	got, ok, err := deviceRatio(&cur.Experiments[0])
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "[device ratio check skipped: no native rows on this platform]")
		return nil
	}
	want, ok, err := deviceRatio(&bexp.Experiments[0])
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if !ok {
		return fmt.Errorf("%s has no native rows; regenerate the baseline on Linux", path)
	}
	if got > want*(1+tol) {
		return fmt.Errorf("device: native/portable ratio %.3f regressed beyond %.0f%% of baseline %.3f", got, tol*100, want)
	}
	fmt.Fprintf(os.Stderr, "[device native/portable ratio %.3f within %.0f%% of baseline %.3f from %s]\n", got, tol*100, want, path)
	return nil
}

func writeJSON(path string, r *jsonReport) error {
	r.GeneratedAt = time.Now().UTC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "optbench:", err)
	os.Exit(1)
}
