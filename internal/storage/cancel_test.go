package storage_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// cancelAfterScans is an EdgeScanner over edges whose second pass — the one
// feeding the sorter — cancels the build's context as it returns, so the
// next context check the build meets is inside the external sort.
type cancelAfterScans struct {
	edges  [][2]uint32
	scans  int
	cancel context.CancelFunc
}

func (c *cancelAfterScans) Scan(fn func(u, v uint32) error) error {
	for _, e := range c.edges {
		if err := fn(e[0], e[1]); err != nil {
			return err
		}
	}
	if c.scans++; c.scans == 2 {
		c.cancel()
	}
	return nil
}

// TestCancelStreamingBuildMidSort cancels a streaming build once every
// edge is in the sorter, its runs spilled: the sorter must see the build's
// context and stop the merge, leaving no store and no run file behind.
func TestCancelStreamingBuildMidSort(t *testing.T) {
	testutil.LeakCheck(t, "cancelled streaming build")
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]uint32, 40000) // 80 000 keys: past the sorter's check interval
	for i := range edges {
		edges[i] = [2]uint32{uint32(rng.Intn(4096)), uint32(rng.Intn(4096))}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir, tmp := t.TempDir(), t.TempDir()
	_, err := storage.BuildFileStreamingContext(ctx, filepath.Join(dir, "g.optstore"),
		&cancelAfterScans{edges: edges, cancel: cancel},
		storage.StreamBuildOptions{PageSize: 128, TempDir: tmp, RunSize: 1 << 12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "streaming sort") {
		t.Fatalf("err = %v: the build did not stop in the sort", err)
	}
	for _, d := range []string{dir, tmp} {
		if entries, _ := os.ReadDir(d); len(entries) != 0 {
			t.Fatalf("cancelled build left %d files in %s", len(entries), d)
		}
	}
}
