package main

import (
	"strings"
	"testing"

	"github.com/optlab/opt/internal/bench"
)

// report builds a one-experiment report whose rows are (variant,
// elapsed_ms) pairs under the pages experiment's codec ratio.
func report(id string, cfg jsonConfig, rows ...[]string) *jsonReport {
	return &jsonReport{Config: cfg, Experiments: []jsonExperiment{{
		ID:     id,
		Header: []string{"dataset", "codec", "elapsed_ms"},
		Rows:   rows,
		Ratio:  &bench.Ratio{Column: "codec", Num: "deltavarint", Den: "raw"},
	}}}
}

func TestGate(t *testing.T) {
	cfg := jsonConfig{Scale: 1, Threads: 6, PageSize: 4096, LatRead: "20µs", LatPage: "5µs"}
	// The committed file: Σ deltavarint ÷ Σ raw = 300 ÷ 250 = 1.2. A baseline
	// read from disk carries no Ratio; the running code's is the one used.
	base := report("pages", cfg,
		[]string{"lj", "raw", "100.000"}, []string{"lj", "deltavarint", "120.000"},
		[]string{"uk", "raw", "150.000"}, []string{"uk", "deltavarint", "180.000"})
	base.Experiments[0].Ratio = nil

	cases := []struct {
		name    string
		cur     *jsonReport
		verdict string // substring of the verdict line; "" when an error is wanted
		err     string // substring of the error; "" when a verdict is wanted
	}{
		{"within tolerance on a machine three times slower",
			report("pages", cfg, []string{"lj", "raw", "300.000"}, []string{"lj", "deltavarint", "390.000"}),
			"1.300 within 25% of the baseline's 1.200", ""},
		{"regressed",
			report("pages", cfg, []string{"lj", "raw", "100.000"}, []string{"lj", "deltavarint", "151.000"}),
			"", "1.510 regressed beyond 25% of the baseline's 1.200"},
		{"variant missing",
			report("pages", cfg, []string{"lj", "raw", "100.000"}),
			"skipped: this run has no deltavarint rows", ""},
		{"config mismatch",
			report("pages", jsonConfig{Scale: 0.5, Threads: 6, PageSize: 4096, LatRead: "20µs", LatPage: "5µs"},
				[]string{"lj", "raw", "100.000"}, []string{"lj", "deltavarint", "120.000"}),
			"", "does not match run config"},
		{"wrong experiment",
			report("device", cfg, []string{"lj", "raw", "100.000"}, []string{"lj", "deltavarint", "120.000"}),
			"", "add -exp pages"},
	}
	for _, tc := range cases {
		verdict, err := gate(tc.cur, base, 0.25)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: gate = %q, %v; want an error containing %q", tc.name, verdict, err, tc.err)
			}
		case err != nil || !strings.Contains(verdict, tc.verdict):
			t.Errorf("%s: gate = %q, %v; want a verdict containing %q", tc.name, verdict, err, tc.verdict)
		}
	}
}
