package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/cmd/internal/cli"
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

func TestNestedFileWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.tri")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := newNestedFileWriter(f)
	w.emit(1, 2, []uint32{3, 4})
	w.emit(5, 6, []uint32{7})
	w.flush()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Records: (1,2,2,3,4) and (5,6,1,7) -> 9 uint32s = 36 bytes.
	if len(data) != 36 {
		t.Fatalf("wrote %d bytes, want 36", len(data))
	}
	if data[0] != 1 || data[4] != 2 || data[8] != 2 || data[12] != 3 || data[16] != 4 {
		t.Fatalf("first record bytes wrong: %v", data[:20])
	}
}

func TestAppendU32(t *testing.T) {
	b := appendU32(nil, 0x04030201)
	if len(b) != 4 || b[0] != 1 || b[1] != 2 || b[2] != 3 || b[3] != 4 {
		t.Fatalf("appendU32 = %v", b)
	}
}
