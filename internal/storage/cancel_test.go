package storage_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// cancelInScan is an EdgeScanner over edges that cancels the build's
// context during its second pass — the one feeding the sorter — once at
// edges have gone by: as the pass returns when at is len(edges), never
// when at is -1.
type cancelInScan struct {
	edges  [][2]uint32
	at     int
	scans  int
	cancel context.CancelFunc
}

func (c *cancelInScan) Scan(fn func(u, v uint32) error) error {
	c.scans++
	for i, e := range c.edges {
		if c.scans == 2 && i == c.at {
			c.cancel()
		}
		if err := fn(e[0], e[1]); err != nil {
			return err
		}
	}
	if c.scans == 2 && c.at == len(c.edges) {
		c.cancel()
	}
	return nil
}

// TestCancelStreamingBuildMidSort stops a streaming build whose sorter has
// spilled runs: cancelled once every edge is in the sorter (the sorter
// must see the build's context and stop the merge), cancelled halfway
// through pass 2, and with every run file's close failing. Each must
// return its cause and leave no store, run or staging file behind.
func TestCancelStreamingBuildMidSort(t *testing.T) {
	testutil.LeakCheck(t, "cancelled streaming build")
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]uint32, 40000) // 80 000 keys: past the sorter's check interval
	for i := range edges {
		edges[i] = [2]uint32{uint32(rng.Intn(4096)), uint32(rng.Intn(4096))}
	}
	for _, tc := range []struct {
		name      string
		at        int  // cancel point in pass 2
		failClose bool // every run file's close fails
		want      error
		stage     string // the build step that must report it
	}{
		{"after-pass-2", len(edges), false, context.Canceled, "streaming sort"},
		{"mid-pass-2", len(edges) / 2, false, context.Canceled, "streaming pass 2"},
		{"run-close-fault", -1, true, ssd.ErrInjected, "streaming pass 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dir, tmp := t.TempDir(), t.TempDir()
			if tc.failClose {
				defer diskio.FailClosesUnder(tmp)()
			}
			_, err := storage.BuildFileStreamingContext(ctx, filepath.Join(dir, "g.optstore"),
				&cancelInScan{edges: edges, at: tc.at, cancel: cancel},
				storage.StreamBuildOptions{PageSize: 128, TempDir: tmp, RunSize: 1 << 12})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.stage) {
				t.Fatalf("err = %v: the build did not stop in the %s", err, tc.stage)
			}
			for _, d := range []string{dir, tmp} {
				if entries, _ := os.ReadDir(d); len(entries) != 0 {
					t.Fatalf("stopped build left %d files in %s", len(entries), d)
				}
			}
		})
	}
}
