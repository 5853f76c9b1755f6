package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"github.com/optlab/opt/internal/diskio"
)

// manifest is the part of BENCHMARK.json the repeatability table needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(root string) (manifest, error) {
	var m manifest
	f, err := diskio.OpenRaw(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	defer func() { _ = f.Close() }() // read-only handle
	err = json.NewDecoder(f).Decode(&m)
	return m, err
}

// runRepeat runs every declared workload n times, each run a child process
// of this binary with its own seed (seed, seed+1, …), and prints for each
// end-to-end metric the spread the driver computes — the distance between
// the first and third quartile as a share of the median — against the
// metric's bound. A spread above the bound cannot resolve a regression of
// that size and is marked unresolved.
func runRepeat(ctx context.Context, out io.Writer, root string, n int, seed int64, seconds int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs, got %d", n)
	}
	m, err := readManifest(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d runs per workload, seeds %d–%d, %d s each.\n\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Fprintf(out, "| workload | metric | median | min | max | unit | spread (IQR/median) | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range m.Workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			rep, err := runChild(ctx, self, w.Name, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed+int64(i), rep.Failed, rep.Attempted)
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, em := range m.EndToEnd {
			spread := relSpread(values[em.Name])
			verdict := "ok"
			switch {
			case spread > em.Bound:
				verdict = "unresolved"
			case spread > em.Bound/3:
				verdict = "wide"
			}
			vs := sorted(values[em.Name])
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.6g | %s | %.4f | %.2f | %s |\n",
				w.Name, em.Name, median(vs), vs[0], vs[len(vs)-1], em.Unit, spread, em.Bound, verdict)
		}
	}
	return nil
}

// runChild makes one untraced run in a child process (same working
// directory) and parses its result line, the last line of its output.
func runChild(ctx context.Context, self, workload string, seed int64, seconds int) (report, error) {
	var rep report
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	// On cancellation the child gets SIGINT, so it can stop its daemons.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("result line: %w", err)
	}
	return rep, nil
}
