package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/cmd/internal/cli"
	"github.com/optlab/opt/internal/core"
	"github.com/optlab/opt/internal/engine"
)

// TestPartialReportOnTimeout covers the graceful-shutdown report path: an
// expired -timeout produces the "status partial (timed out …)" line ahead
// of the partial counts, exactly as the SIGINT path does for
// "interrupted".
func TestPartialReportOnTimeout(t *testing.T) {
	err := fmt.Errorf("run: %w", context.DeadlineExceeded)
	var out strings.Builder
	reportPartial(&out, cli.PartialReason(err, 30*time.Second))
	report(&out, &opt.Result{Algorithm: opt.OPT, Triangles: 7, Iterations: 2})
	got := out.String()
	for _, want := range []string{
		"status        partial (timed out after 30s)",
		"triangles     7",
		"algorithm     OPT",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report output missing %q:\n%s", want, got)
		}
	}
}

// TestPartialReportOnInterrupt covers the SIGINT wording of the same path.
func TestPartialReportOnInterrupt(t *testing.T) {
	var out strings.Builder
	reportPartial(&out, cli.PartialReason(context.Canceled, 0))
	if got := out.String(); got != "status        partial (interrupted)\n" {
		t.Fatalf("partial line = %q", got)
	}
}

// TestSignalContextDeadlineCancelsRun exercises the factored signal/timeout
// helper end to end against a real (cancellable) triangulation, pinning
// that an expired deadline yields a partial result plus a
// DeadlineExceeded error — the pair main turns into a partial report and
// a non-zero exit.
func TestSignalContextDeadlineCancelsRun(t *testing.T) {
	g, err := opt.GenerateRMAT(opt.RMATConfig{Vertices: 1 << 9, Edges: 6000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.optstore")
	st, err := opt.BuildStore(path, g.DegreeOrdered(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := cli.SignalContext(context.Background(), time.Nanosecond)
	defer stop()
	res, err := opt.TriangulateContext(ctx, st, opt.Options{Algorithm: opt.MGT})
	if err == nil {
		t.Fatal("run under an expired deadline must fail")
	}
	if reason := cli.PartialReason(err, time.Nanosecond); !strings.HasPrefix(reason, "timed out") {
		t.Fatalf("PartialReason = %q, want timed out", reason)
	}
	if res != nil && res.Triangles < 0 {
		t.Fatalf("partial result %+v malformed", res)
	}
}

func TestParseAlgo(t *testing.T) {
	cases := map[string]opt.Algorithm{
		"opt":        opt.OPT,
		"opt-serial": opt.OPTSerial,
		"mgt":        opt.MGT,
		"cc-seq":     opt.CCSeq,
		"cc-ds":      opt.CCDS,
		"graphchi":   opt.GraphChiTri,
	}
	for in, want := range cases {
		got, err := parseAlgo(in)
		if err != nil {
			t.Fatalf("parseAlgo(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("parseAlgo(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := parseAlgo("bogus"); err == nil {
		t.Fatal("parseAlgo(bogus): want error")
	}
}

// TestParseModel: -model accepts exactly the three iterator models, each
// resolving to its public constant; a typo must fail loudly instead of
// silently running the edge model.
func TestParseModel(t *testing.T) {
	for in, want := range map[string]opt.IteratorModel{
		"edge": opt.EdgeIteratorModel, "vertex": opt.VertexIteratorModel, "mgt": opt.MGTInstanceModel,
	} {
		if got, err := engine.ParseModel(in); err != nil || got != want {
			t.Fatalf("-model %q = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "vertx", "MGT"} {
		if _, err := engine.ParseModel(in); err == nil || !strings.Contains(err.Error(), "edge, vertex or mgt") {
			t.Fatalf("-model %q = %v, want an error listing the accepted models", in, err)
		}
	}
}

// TestPartialListingHoldsPartialCount: a run that times out mid-way still
// leaves its -list file flushed and closed, holding exactly the triangles
// of the partial count it reports.
func TestPartialListingHoldsPartialCount(t *testing.T) {
	g, err := opt.GenerateRMAT(opt.RMATConfig{Vertices: 1 << 10, Edges: 12000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st, err := opt.BuildStore(filepath.Join(t.TempDir(), "g.optstore"), g.DegreeOrdered(), 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []opt.Algorithm{opt.OPT, opt.OPTSerial, opt.MGT, opt.CCSeq, opt.CCDS} {
		t.Run(algo.String(), func(t *testing.T) {
			list := filepath.Join(t.TempDir(), "tri.bin")
			ctx, stop := cli.SignalContext(context.Background(), 300*time.Millisecond)
			defer stop()
			res, err := triangulate(ctx, st, opt.Options{
				Algorithm: algo, Threads: 2, MemoryPages: 4,
				Latency: opt.DeviceLatency{PerRead: time.Millisecond},
			}, list)
			if !errors.Is(err, context.DeadlineExceeded) || res == nil {
				t.Fatalf("res %v, err %v; want a partial result of a timed-out run", res, err)
			}
			f, err := os.Open(list)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var listed int64
			if err := core.ReadNested(f, func(u, v uint32, ws []uint32) error {
				listed += int64(len(ws))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if listed != res.Triangles || listed == 0 {
				t.Fatalf("listing holds %d triangles, the partial report %d", listed, res.Triangles)
			}
		})
	}
}
