// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§5) at laptop scale. Each
// experiment returns a Table whose rows mirror the paper's presentation;
// EXPERIMENTS.md records paper-vs-measured for each id.
//
// Workloads are the R-MAT dataset proxies of DESIGN.md §3 (density-matched
// stand-ins for LJ/ORKUT/TWITTER/UK/YAHOO) plus Holme–Kim graphs for the
// clustering sweep. Device latency is simulated (ssd.Latency) so the
// I/O-to-CPU cost ratio c of §3.3 is meaningful regardless of the host.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Config scales and parameterises the experiments.
type Config struct {
	// Scale multiplies the default proxy sizes (1.0 ≈ hundreds of
	// thousands of edges per dataset; raise it on beefier machines).
	Scale float64
	// Threads is the maximum core count exercised (paper: 6).
	Threads int
	// PageSize for the stores (default 4096 to keep page counts
	// meaningful at laptop scale).
	PageSize int
	// Latency is the simulated FlashSSD latency model.
	Latency ssd.Latency
	// Backend selects the device backend every experiment opens stores
	// through ("portable", "native", "auto"; empty resolves via OPT_BACKEND
	// then portable). The device experiment sweeps backends itself and
	// ignores this knob.
	Backend string
	// WorkDir holds generated stores; a temp dir when empty.
	WorkDir string
	// Context, if non-nil, cancels experiments between and within
	// algorithm runs (SIGINT handling in cmd/optbench). Defaults to
	// context.Background().
	Context context.Context
}

// DefaultConfig returns the configuration used by cmd/optbench.
func DefaultConfig() Config {
	return Config{
		Scale:    1.0,
		Threads:  6,
		PageSize: 4096,
		Latency:  ssd.Latency{PerRead: 20 * time.Microsecond, PerPage: 5 * time.Microsecond},
	}
}

// proxyVertices gives the scale-1.0 vertex counts per dataset proxy.
var proxyVertices = map[string]int{
	"lj":      24_000,
	"orkut":   6_000,
	"twitter": 12_000,
	"uk":      12_000,
	"yahoo":   120_000,
}

// Table is one experiment's output in the paper's layout.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Ratio, when set, names the one figure of this experiment that a
	// committed baseline gates (cmd/optbench -baseline).
	Ratio *Ratio
}

// Ratio is a same-run figure of merit: Σ elapsed_ms over the rows whose
// Column holds Num, divided by Σ over the rows where it holds Den. Ratios
// of two variants measured in one run transfer between machines; absolute
// milliseconds do not.
type Ratio struct {
	Column, Num, Den string
}

// RenderCSV writes the table as CSV (header row first, notes as trailing
// comment lines) for plotting pipelines.
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeCSV := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSV(t.Header)
	for _, row := range t.Rows {
		writeCSV(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Harness caches generated graphs and stores across experiments.
type Harness struct {
	cfg     Config
	mu      sync.Mutex
	graphs  map[string]*graph.Graph
	stores  map[string]*storage.Store
	workDir string
	ownDir  bool
}

// NewHarness prepares a harness; call Close to remove generated files.
func NewHarness(cfg Config) (*Harness, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 6
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	h := &Harness{cfg: cfg, graphs: map[string]*graph.Graph{}, stores: map[string]*storage.Store{}}
	if cfg.WorkDir != "" {
		h.workDir = cfg.WorkDir
	} else {
		dir, err := os.MkdirTemp("", "optbench-*")
		if err != nil {
			return nil, err
		}
		h.workDir = dir
		h.ownDir = true
	}
	return h, nil
}

// Close removes the harness's generated files when it owns the directory.
func (h *Harness) Close() error {
	if h.ownDir {
		return os.RemoveAll(h.workDir)
	}
	return nil
}

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// ctx returns the harness's cancellation context.
func (h *Harness) ctx() context.Context {
	if h.cfg.Context != nil {
		return h.cfg.Context
	}
	return context.Background()
}

// proxy returns the degree-ordered proxy graph for a Table 2 dataset.
func (h *Harness) proxy(name string) (*graph.Graph, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g, ok := h.graphs[name]; ok {
		return g, nil
	}
	d, err := gen.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	n := int(float64(proxyVertices[name]) * h.cfg.Scale)
	if n < 256 {
		n = 256
	}
	g, err := d.Proxy(n)
	if err != nil {
		return nil, err
	}
	h.graphs[name] = g
	return g, nil
}

// store returns (building on first use) the slotted-page store for a named
// graph, in the default raw page codec.
func (h *Harness) store(name string, g *graph.Graph) (*storage.Store, error) {
	return h.storeCodec(name, g, storage.CodecRaw)
}

// storeCodec returns (building on first use) the store for a named graph in
// the named page codec. Stores are cached per (name, codec) pair so the
// pages experiment and the raw-codec experiments never collide.
func (h *Harness) storeCodec(name string, g *graph.Graph, codec string) (*storage.Store, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := name + "/" + codec
	if st, ok := h.stores[key]; ok {
		return st, nil
	}
	path := filepath.Join(h.workDir, name+"-"+codec+".optstore")
	st, err := storage.BuildFileCodec(path, g, h.cfg.PageSize, codec)
	if err != nil {
		return nil, err
	}
	h.stores[key] = st
	return st, nil
}

// device opens a store's page device through the configured backend.
func (h *Harness) device(st *storage.Store) (ssd.PageDevice, error) {
	b, err := ssd.ParseBackend(h.cfg.Backend)
	if err != nil {
		return nil, err
	}
	return st.DeviceBackend(b)
}

// proxyStore returns both the proxy graph and its store.
func (h *Harness) proxyStore(name string) (*graph.Graph, *storage.Store, error) {
	g, err := h.proxy(name)
	if err != nil {
		return nil, nil, err
	}
	st, err := h.store(name, g)
	if err != nil {
		return nil, nil, err
	}
	return g, st, nil
}

// fmtDur renders a duration with millisecond precision.
func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// fmtRatio renders a ratio with two decimals.
func fmtRatio(r float64) string { return fmt.Sprintf("%.2f", r) }

// Experiments lists every experiment id in paper order.
func Experiments() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// registry maps experiment ids to their implementations.
var registry = map[string]func(*Harness) (*Table, error){
	"table2": Table2,
	"table3": Table3,
	"fig3a":  Fig3a,
	"fig3b":  Fig3b,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"table4": Table4,
	"fig6":   Fig6,
	"table5": Table5,
	"table6": Table6,
	"fig7a":  Fig7a,
	"fig7b":  Fig7b,
	"fig7c":  Fig7c,
	"table7": Table7,
	"pages":  Pages,
	"device": Device,
}

// Run executes one experiment by id and renders it to w as aligned text.
func (h *Harness) Run(id string, w io.Writer) error {
	t, err := h.Table(id)
	if err != nil {
		return err
	}
	return t.Render(w)
}

// Table executes one experiment by id and returns its table.
func (h *Harness) Table(id string) (*Table, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
	}
	if err := h.ctx().Err(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	t, err := fn(h)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	return t, nil
}
