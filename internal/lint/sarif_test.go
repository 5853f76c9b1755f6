package lint_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"

	"github.com/optlab/opt/internal/lint"
)

// TestWriteSARIF pins the subset of SARIF 2.1.0 that GitHub code scanning
// ingests: version, one run, a rule descriptor per analyzer (findings
// reference rules by index), and per-result physical locations with
// 1-based lines and columns.
func TestWriteSARIF(t *testing.T) {
	analyzers := lint.Default("github.com/optlab/opt")
	findings := []lint.Finding{
		{
			Pos:     token.Position{Filename: "internal/ssd/async.go", Line: 338, Column: 2},
			Rule:    "condguard",
			Message: "sync.Cond.Signal without holding a mutex",
		},
		{
			Pos:     token.Position{Filename: "internal/server/manager.go", Line: 12, Column: 1},
			Rule:    lint.SuppressRule,
			Message: "unused optlint:ignore lockheld directive",
		},
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, analyzers, findings); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "optlint" {
		t.Errorf("driver name = %q, want optlint", run.Tool.Driver.Name)
	}
	// Every default analyzer plus the suppression pseudo-rule has a
	// descriptor, and every result's ruleIndex points at its own rule.
	if want := len(analyzers) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("%d rule descriptors, want %d", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("%d results, want %d", len(run.Results), len(findings))
	}
	for i, r := range run.Results {
		if r.RuleID != findings[i].Rule || r.Level != "error" {
			t.Errorf("result %d: ruleId=%q level=%q", i, r.RuleID, r.Level)
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %d: ruleIndex %d does not resolve to %q", i, r.RuleIndex, r.RuleID)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != findings[i].Pos.Filename {
			t.Errorf("result %d: uri = %q, want %q", i, loc.ArtifactLocation.URI, findings[i].Pos.Filename)
		}
		if loc.Region.StartLine != findings[i].Pos.Line || loc.Region.StartColumn != findings[i].Pos.Column {
			t.Errorf("result %d: region %d:%d, want %d:%d", i,
				loc.Region.StartLine, loc.Region.StartColumn, findings[i].Pos.Line, findings[i].Pos.Column)
		}
	}
}
