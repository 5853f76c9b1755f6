package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/optlab/opt/internal/ssd"
)

// tinyConfig keeps the integration sweep fast.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.06
	cfg.Threads = 3
	cfg.WorkDir = t.TempDir()
	cfg.Latency = ssd.Latency{} // raw device speed
	return cfg
}

// TestEveryExperimentRuns executes every registered experiment end to end
// at tiny scale: the whole reproduction pipeline (generators, stores, all
// algorithms, cluster sims) must hold together for each table and figure.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	h, err := NewHarness(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := h.Run(id, &buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "== "+id+":") {
				t.Fatalf("output missing header: %q", out[:min(len(out), 80)])
			}
			if strings.Count(out, "\n") < 4 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	h, err := NewHarness(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Run("fig99", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment: want error")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note one"},
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "333", "note: note one"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentsListStable(t *testing.T) {
	ids := Experiments()
	if len(ids) != 16 {
		t.Fatalf("got %d experiments, want 16 (one per table/figure plus pages and device)", len(ids))
	}
	want := map[string]bool{
		"table2": true, "table3": true, "table4": true, "table5": true,
		"table6": true, "table7": true, "fig3a": true, "fig3b": true,
		"fig4": true, "fig5": true, "fig6": true, "fig7a": true,
		"fig7b": true, "fig7c": true, "pages": true,
		"device": true,
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected experiment %q", id)
		}
	}
}

// TestPagesExperiment checks the page-codec table's invariants at tiny
// scale: one row per (dataset, codec), identical triangle counts within a
// dataset, and delta+varint never producing more pages than raw. (The ≥25%
// power-law reduction bar is pinned by the storage tests.)
func TestPagesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	h, err := NewHarness(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	tb, err := h.Table("pages")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(fig3Datasets); len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	for i := 0; i < len(tb.Rows); i += 2 {
		raw, dv := tb.Rows[i], tb.Rows[i+1]
		if raw[0] != dv[0] || raw[1] != "raw" || dv[1] != "deltavarint" {
			t.Fatalf("unexpected row pairing: %v / %v", raw, dv)
		}
		rawPages, err1 := strconv.ParseInt(raw[2], 10, 64)
		dvPages, err2 := strconv.ParseInt(dv[2], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: unparsable page counts in %v / %v", raw[0], raw, dv)
		}
		if dvPages > rawPages {
			t.Errorf("%s: deltavarint grew the store: %d > %d pages", raw[0], dvPages, rawPages)
		}
		if raw[5] != dv[5] {
			t.Errorf("%s: triangle counts diverge across codecs: %s vs %s", raw[0], raw[5], dv[5])
		}
		for _, row := range [][]string{raw, dv} {
			if _, err := strconv.ParseFloat(row[6], 64); err != nil {
				t.Errorf("%s/%s: unparsable elapsed_ms %q", row[0], row[1], row[6])
			}
		}
	}
}

// TestDeviceExperiment checks the backend table's invariants at tiny scale:
// one row per (dataset, codec, backend), identical content checksums across
// backends, read submissions recorded, and parsable elapsed_ms. On Linux
// the native rows must be present; ring/batch behaviour itself is pinned by
// the ssd tests.
func TestDeviceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	h, err := NewHarness(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	tb, err := h.Table("device")
	if err != nil {
		t.Fatal(err)
	}
	backends := 1
	if ssd.NativeAvailable() {
		backends = 2
	}
	if want := 2 * backends * len(deviceDatasets); len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	counts := map[string]string{} // dataset/codec → checksum
	for _, row := range tb.Rows {
		key := row[0] + "/" + row[1]
		if prev, ok := counts[key]; ok && prev != row[9] {
			t.Errorf("%s: checksums diverge across backends: %s vs %s", key, prev, row[9])
		}
		counts[key] = row[9]
		if reads, err := strconv.ParseInt(row[5], 10, 64); err != nil || reads == 0 {
			t.Errorf("%s/%s: bad read-submission count %q", key, row[2], row[5])
		}
		if _, err := strconv.ParseFloat(row[10], 64); err != nil {
			t.Errorf("%s/%s: unparsable elapsed_ms %q", key, row[2], row[10])
		}
	}
}

func TestHarnessProxyCache(t *testing.T) {
	h, err := NewHarness(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	g1, err := h.proxy("lj")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := h.proxy("lj")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("proxy not cached")
	}
	if _, err := h.proxy("nope"); err == nil {
		t.Fatal("unknown proxy: want error")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := &Table{
		ID:     "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}, {"2", `with"quote`}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a,b\n", `"with,comma"`, `"with""quote"`, "# a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}
