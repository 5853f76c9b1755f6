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
	"sort"
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
	// Ratio is the experiment's own statement of what -baseline gates; it
	// comes from the running code, never from a baseline file.
	Ratio *bench.Ratio `json:"-"`
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
		baseline = flag.String("baseline", "", "gate the experiment a committed BENCH_<id>.json holds: the median of its same-run elapsed ratio over 3 runs must not regress against the file's")
		regress  = flag.Float64("regress", 0.25, "fail if the gated ratio exceeds the baseline's by more than this fraction")
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
			Ratio:   t.Ratio,
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
		// An experiment that declares a gated ratio additionally lands in a
		// file of its own, the committed baseline -baseline compares against.
		for _, e := range report.Experiments {
			if e.Ratio == nil {
				continue
			}
			path := filepath.Join(filepath.Dir(*jsonOut), "BENCH_"+e.ID+".json")
			if err := writeJSON(path, experimentOnly(&report, e.ID)); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "[%s results written to %s]\n", e.ID, path)
		}
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fail(err)
		}
		var base jsonReport
		if err := json.Unmarshal(data, &base); err != nil {
			fail(fmt.Errorf("%s: %v", *baseline, err))
		}
		rerun := func(id string) (*jsonExperiment, error) {
			t, err := h.Table(id)
			if err != nil {
				return nil, err
			}
			return &jsonExperiment{ID: t.ID, Header: t.Header, Rows: t.Rows, Ratio: t.Ratio}, nil
		}
		verdict, err := gate(&report, &base, *regress, rerun)
		if err != nil {
			fail(fmt.Errorf("%s: %v", *baseline, err))
		}
		fmt.Fprintf(os.Stderr, "[%s, baseline %s]\n", verdict, *baseline)
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

// ratioOf reduces an experiment to the figure of merit r names: Σ
// elapsed_ms over the rows whose r.Column is r.Num, divided by Σ over the
// rows where it is r.Den. Absolute times differ wildly across machines and
// disks; how two variants compare in the SAME run transfers. ok is false
// when the run has no numerator rows (the native backend off Linux).
func ratioOf(e *jsonExperiment, r bench.Ratio) (ratio float64, ok bool, err error) {
	col := map[string]int{}
	for i, h := range e.Header {
		col[h] = i
	}
	for _, want := range []string{r.Column, "elapsed_ms"} {
		if _, ok := col[want]; !ok {
			return 0, false, fmt.Errorf("%s experiment has no %q column (header %v)", e.ID, want, e.Header)
		}
	}
	sum := map[string]float64{}
	for _, row := range e.Rows {
		var ms float64
		if _, err := fmt.Sscanf(row[col["elapsed_ms"]], "%g", &ms); err != nil {
			return 0, false, fmt.Errorf("%s row %v: bad elapsed_ms: %v", e.ID, row, err)
		}
		sum[row[col[r.Column]]] += ms
	}
	if _, have := sum[r.Num]; !have {
		return 0, false, nil
	}
	if sum[r.Den] <= 0 {
		return 0, false, fmt.Errorf("%s experiment has no %s=%s rows to compare against", e.ID, r.Column, r.Den)
	}
	return sum[r.Num] / sum[r.Den], true, nil
}

// gateRuns is how many same-run ratios the baseline gate takes the median
// of: the sweep's own run of the gated experiment plus gateRuns-1 reruns.
// One ratio on a shared host can swing past its bound on noise alone; the
// median of three does not move with one slow run.
const gateRuns = 3

// gate is the one baseline check: base holds one experiment, the fresh
// report must have run the same experiment under the same config, and the
// median of gateRuns fresh ratios (see ratioOf) — the report's run plus
// reruns from rerun — must not exceed the ratio computed from base's rows
// by more than tol. It returns the verdict line to print; a run without
// numerator rows skips the check rather than failing it.
func gate(cur, base *jsonReport, tol float64, rerun func(id string) (*jsonExperiment, error)) (string, error) {
	if len(base.Experiments) != 1 {
		return "", fmt.Errorf("baseline holds %d experiments, want exactly one", len(base.Experiments))
	}
	want := &base.Experiments[0]
	fresh := experimentOnly(cur, want.ID)
	if fresh == nil {
		return "", fmt.Errorf("baseline is for the %s experiment, which this sweep did not run (add -exp %s)", want.ID, want.ID)
	}
	got := &fresh.Experiments[0]
	if got.Ratio == nil {
		return "", fmt.Errorf("the %s experiment declares no ratio to gate", got.ID)
	}
	if base.Config != cur.Config {
		return "", fmt.Errorf("baseline config %+v does not match run config %+v; rerun with matching -scale/-pagesize/-threads/-lat-*/-backend or regenerate the file",
			base.Config, cur.Config)
	}
	name := fmt.Sprintf("%s %s/%s elapsed ratio", got.ID, got.Ratio.Num, got.Ratio.Den)
	gotRatio, ok, err := ratioOf(got, *got.Ratio)
	if err != nil {
		return "", err
	}
	if !ok {
		return fmt.Sprintf("%s check skipped: this run has no %s rows", name, got.Ratio.Num), nil
	}
	wantRatio, ok, err := ratioOf(want, *got.Ratio)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("baseline has no %s rows; regenerate it where that variant runs", got.Ratio.Num)
	}
	ratios := []float64{gotRatio}
	for len(ratios) < gateRuns {
		e, err := rerun(got.ID)
		if err != nil {
			return "", err
		}
		r, ok, err := ratioOf(e, *got.Ratio)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("a rerun of %s has no %s rows", got.ID, got.Ratio.Num)
		}
		ratios = append(ratios, r)
	}
	runs := fmt.Sprintf("%.3f", ratios)
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if median > wantRatio*(1+tol) {
		return "", fmt.Errorf("%s median %.3f of %s regressed beyond %.0f%% of the baseline's %.3f", name, median, runs, tol*100, wantRatio)
	}
	return fmt.Sprintf("%s median %.3f of %s within %.0f%% of the baseline's %.3f", name, median, runs, tol*100, wantRatio), nil
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
