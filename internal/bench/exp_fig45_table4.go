package bench

import (
	"fmt"
	"time"

	"github.com/optlab/opt/internal/storage"
)

// Fig4 reproduces the thread-morphing experiment: per-iteration busy times
// of the internal (main thread) and external (callback thread) work classes
// with and without morphing, on the UK proxy with 2 cores, plus the
// Figure 4b cumulative comparison against OPT_serial.
func Fig4(h *Harness) (*Table, error) {
	_, st, err := h.proxyStore("uk")
	if err != nil {
		return nil, err
	}
	mem := budget(st, 0.15)

	noMorph, err := h.runOPT(st, mem, 2, true)
	if err != nil {
		return nil, err
	}
	morph, err := h.runOPT(st, mem, 2, false)
	if err != nil {
		return nil, err
	}
	serial, err := h.runOPTSerial(st, mem, nil)
	if err != nil {
		return nil, err
	}
	if noMorph.Triangles != morph.Triangles || serial.Triangles != morph.Triangles {
		return nil, fmt.Errorf("fig4: counts disagree")
	}

	t := &Table{
		ID:    "fig4",
		Title: "Thread morphing on UK proxy, 2 cores (per-iteration busy time)",
		Header: []string{"iter",
			"no-morph internal", "no-morph external",
			"morph internal", "morph external"},
	}
	n := len(noMorph.IterStats)
	if len(morph.IterStats) < n {
		n = len(morph.IterStats)
	}
	for i := 0; i < n; i++ {
		a, b := noMorph.IterStats[i], morph.IterStats[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1),
			fmtDur(a.InternalTime), fmtDur(a.ExternalTime),
			fmtDur(b.InternalTime), fmtDur(b.ExternalTime),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fig4b cumulative elapsed — OPT_serial: %s, OPT w/o morphing: %s, OPT with morphing: %s",
			fmtDur(serial.Elapsed), fmtDur(noMorph.Elapsed), fmtDur(morph.Elapsed)),
		fmt.Sprintf("speed-up over serial — w/o morphing: %.2f×, with morphing: %.2f× (paper: ~1.1–1.3× vs ~2×)",
			float64(serial.Elapsed)/float64(noMorph.Elapsed),
			float64(serial.Elapsed)/float64(morph.Elapsed)),
		"with morphing the idle class's workers steal the other class's pages, balancing the two columns")
	return t, nil
}

// Fig5 sweeps the memory budget from 5% to 25% for the five disk methods
// on the TWITTER and UK proxies.
func Fig5(h *Harness) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Elapsed time vs memory buffer size (serial disk methods)",
		Header: []string{"dataset", "method", "5%", "10%", "15%", "20%", "25%"},
	}
	type method struct {
		name string
		run  func(st *storage.Store, mem int) (*runResult, error)
	}
	methods := []method{
		{"GraphChi-Tri", func(st *storage.Store, mem int) (*runResult, error) { return h.runGChi(st, mem, 1) }},
		{"CC-Seq", func(st *storage.Store, mem int) (*runResult, error) { return h.runCC(st, "CC-Seq", mem, nil) }},
		{"CC-DS", func(st *storage.Store, mem int) (*runResult, error) { return h.runCC(st, "CC-DS", mem, nil) }},
		{"MGT", func(st *storage.Store, mem int) (*runResult, error) { return h.runMGT(st, mem, nil) }},
		{"OPT_serial", func(st *storage.Store, mem int) (*runResult, error) { return h.runOPTSerial(st, mem, nil) }},
	}
	for _, name := range []string{"twitter", "uk"} {
		_, st, err := h.proxyStore(name)
		if err != nil {
			return nil, err
		}
		var want int64 = -1
		for _, m := range methods {
			row := []string{name, m.name}
			for _, frac := range bufferSweep {
				frac := frac
				res, err := best(repetitions, func() (*runResult, error) {
					return m.run(st, budget(st, frac))
				})
				if err != nil {
					return nil, fmt.Errorf("fig5 %s/%s@%.0f%%: %w", name, m.name, frac*100, err)
				}
				if want == -1 {
					want = res.Triangles
				} else if res.Triangles != want {
					return nil, fmt.Errorf("fig5 %s/%s: count %d != %d", name, m.name, res.Triangles, want)
				}
				row = append(row, fmtDur(res.Elapsed))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper: slow group (GraphChi-Tri, CC-Seq, CC-DS) 2–10× slower than fast group (MGT, OPT_serial),",
		"gap widening as the buffer shrinks; OPT_serial always fastest and nearly buffer-insensitive")
	return t, nil
}

// Table4 compares OPT and GraphChi-Tri at 1 and max cores on the four
// proxies (paper Table 4).
func Table4(h *Harness) (*Table, error) {
	c := h.cfg.Threads
	t := &Table{
		ID:     "table4",
		Title:  fmt.Sprintf("Elapsed time of OPT and GraphChi-Tri using 1 and %d CPU cores", c),
		Header: []string{"method", "lj", "orkut", "twitter", "uk"},
	}
	rows := map[string][]time.Duration{}
	order := []string{"OPT_serial", "GraphChi-Tri_serial", "OPT", "GraphChi-Tri"}
	ratios := make([]float64, len(fig3Datasets))
	for di, name := range fig3Datasets {
		_, st, err := h.proxyStore(name)
		if err != nil {
			return nil, err
		}
		mem := budget(st, 0.15)
		optS, err := best(repetitions, func() (*runResult, error) { return h.runOPTSerial(st, mem, nil) })
		if err != nil {
			return nil, err
		}
		gchiS, err := best(repetitions, func() (*runResult, error) { return h.runGChi(st, mem, 1) })
		if err != nil {
			return nil, err
		}
		optP, err := best(repetitions, func() (*runResult, error) { return h.runOPTParallel(st, mem, c) })
		if err != nil {
			return nil, err
		}
		gchiP, err := best(repetitions, func() (*runResult, error) { return h.runGChi(st, mem, c) })
		if err != nil {
			return nil, err
		}
		for _, pair := range []struct {
			k string
			r *runResult
		}{{"OPT_serial", optS}, {"GraphChi-Tri_serial", gchiS}, {"OPT", optP}, {"GraphChi-Tri", gchiP}} {
			rows[pair.k] = append(rows[pair.k], pair.r.Elapsed)
			if pair.r.Triangles != optS.Triangles {
				return nil, fmt.Errorf("table4 %s/%s: count mismatch", name, pair.k)
			}
		}
		ratios[di] = float64(gchiP.Elapsed) / float64(optP.Elapsed)
	}
	for _, k := range order {
		row := []string{k}
		for _, d := range rows[k] {
			row = append(row, fmtDur(d))
		}
		t.Rows = append(t.Rows, row)
	}
	ratioRow := []string{"GraphChi-Tri/OPT"}
	for _, r := range ratios {
		ratioRow = append(ratioRow, fmtRatio(r))
	}
	t.Rows = append(t.Rows, ratioRow)
	t.Notes = append(t.Notes, "paper: OPT outperforms GraphChi-Tri by 3.9–13.4× at 6 cores")
	return t, nil
}
