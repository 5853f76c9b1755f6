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

	// rows renders one lj raw/deltavarint run whose ratio is dv/100.
	rows := func(dv string) [][]string {
		return [][]string{{"lj", "raw", "100.000"}, {"lj", "deltavarint", dv}}
	}
	cases := []struct {
		name    string
		cur     *jsonReport
		reruns  [][][]string // rows of the reruns; nil repeats cur's rows
		verdict string       // substring of the verdict line; "" when an error is wanted
		err     string       // substring of the error; "" when a verdict is wanted
	}{
		{"within tolerance on a machine three times slower",
			report("pages", cfg, []string{"lj", "raw", "300.000"}, []string{"lj", "deltavarint", "390.000"}), nil,
			"median 1.300 of [1.300 1.300 1.300] within 25% of the baseline's 1.200", ""},
		{"regressed",
			report("pages", cfg, rows("151.000")...), nil,
			"", "median 1.510 of [1.510 1.510 1.510] regressed beyond 25% of the baseline's 1.200"},
		{"one noisy run is outvoted",
			report("pages", cfg, rows("160.000")...), [][][]string{rows("120.000"), rows("125.000")},
			"median 1.250 of [1.600 1.200 1.250] within 25%", ""},
		{"a regression in two of three runs fails",
			report("pages", cfg, rows("120.000")...), [][][]string{rows("151.000"), rows("160.000")},
			"", "median 1.510 of [1.200 1.510 1.600] regressed"},
		{"variant missing",
			report("pages", cfg, []string{"lj", "raw", "100.000"}), nil,
			"skipped: this run has no deltavarint rows", ""},
		{"config mismatch",
			report("pages", jsonConfig{Scale: 0.5, Threads: 6, PageSize: 4096, LatRead: "20µs", LatPage: "5µs"},
				[]string{"lj", "raw", "100.000"}, []string{"lj", "deltavarint", "120.000"}), nil,
			"", "does not match run config"},
		{"wrong experiment",
			report("device", cfg, []string{"lj", "raw", "100.000"}, []string{"lj", "deltavarint", "120.000"}), nil,
			"", "add -exp pages"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			rerun := func(id string) (*jsonExperiment, error) {
				e := tc.cur.Experiments[0]
				if tc.reruns != nil {
					e.Rows = tc.reruns[n]
				}
				n++
				return &e, nil
			}
			verdict, err := gate(tc.cur, base, 0.25, rerun)
			switch {
			case tc.err != "":
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("gate = %q, %v; want an error containing %q", verdict, err, tc.err)
				}
			case err != nil || !strings.Contains(verdict, tc.verdict):
				t.Errorf("gate = %q, %v; want a verdict containing %q", verdict, err, tc.verdict)
			}
		})
	}
}
