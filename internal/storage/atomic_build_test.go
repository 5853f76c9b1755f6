package storage

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// dirNames lists dir's entries, for "no stray temp file" assertions.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFailedBuildLeavesNoTrace pins the writers' all-or-nothing contract: a
// build that fails or is cancelled once its pages exist leaves no file at the
// destination, no temp file beside it, and an existing store byte-identical.
func TestFailedBuildLeavesNoTrace(t *testing.T) {
	g := graph.PaperExample()
	errDisk := errors.New("disk full")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name  string
		pages func(whole io.Reader) io.Reader
		want  error
	}{
		{"page source fails mid-copy", func(r io.Reader) io.Reader {
			return io.MultiReader(io.LimitReader(r, 100), iotest.ErrReader(errDisk))
		}, errDisk},
		{"cancelled during the page copy", func(r io.Reader) io.Reader {
			return ctxReader{cancelled, r}
		}, context.Canceled},
	} {
		for _, existing := range []bool{false, true} {
			name := tc.name + "/fresh path"
			if existing {
				name = tc.name + "/over an existing store"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "g.optstore")
				var before []byte
				if existing {
					if _, err := BuildFile(path, g, 128); err != nil {
						t.Fatal(err)
					}
					before, _ = os.ReadFile(path)
				}
				// A second, different store headed for the same path fails
				// after its pages were staged.
				other, err := BuildFileCodec(filepath.Join(t.TempDir(), "other"), graph.Complete(9), 128, CodecRaw)
				if err != nil {
					t.Fatal(err)
				}
				otherBytes, _ := os.ReadFile(other.Path)
				other.Path = path
				err = other.writeFile(tc.pages(bytes.NewReader(otherBytes[other.dataOffset:])))
				if !errors.Is(err, tc.want) {
					t.Fatalf("writeFile error = %v, want %v", err, tc.want)
				}
				after, readErr := os.ReadFile(path)
				if existing {
					if readErr != nil || !bytes.Equal(before, after) {
						t.Fatalf("existing store did not survive the failed build (read error %v)", readErr)
					}
					if names := dirNames(t, dir); len(names) != 1 {
						t.Fatalf("stray files beside the store: %v", names)
					}
				} else if names := dirNames(t, dir); len(names) != 0 {
					t.Fatalf("failed build left files behind: %v", names)
				}
			})
		}
	}

	// Through the public API: the streaming build stages its pages, then
	// cannot move the finished file onto a path that is a directory.
	t.Run("streaming build onto a directory", func(t *testing.T) {
		dir, tmp := t.TempDir(), t.TempDir()
		path := filepath.Join(dir, "taken")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildFileStreaming(path, GraphScanner{G: g}, StreamBuildOptions{PageSize: 128, TempDir: tmp}); err == nil {
			t.Fatal("build onto a directory succeeded")
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "taken" {
			t.Fatalf("stray files beside the destination: %v", names)
		}
		if names := dirNames(t, tmp); len(names) != 0 {
			t.Fatalf("stray files in TempDir: %v", names)
		}
	})
}

// TestRebuildKeepsOpenDeviceOnOldStore: a device opened before a successful
// rebuild at the same path keeps reading the old store's pages — the new
// file replaces the directory entry, not the bytes under the open handle —
// and a fresh Open sees the new store.
func TestRebuildKeepsOpenDeviceOnOldStore(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<8, 2_000, 7))
	if err != nil {
		t.Fatal(err)
	}
	oldG, _ := graph.DegreeOrder(raw)
	newG := graph.Complete(40)
	for _, rebuild := range []struct {
		name string
		fn   func(path string) (*Store, error)
	}{
		{"BuildFileCodec", func(path string) (*Store, error) { return BuildFileCodec(path, newG, 128, CodecRaw) }},
		{"BuildFileStreaming", func(path string) (*Store, error) {
			return BuildFileStreaming(path, GraphScanner{G: newG}, StreamBuildOptions{PageSize: 128, TempDir: t.TempDir()})
		}},
	} {
		t.Run(rebuild.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.optstore")
			if _, err := BuildFile(path, oldG, 128); err != nil {
				t.Fatal(err)
			}
			old, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := old.Device()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dev.Close() }()
			before, err := dev.ReadPages(0, int(old.NumPages))
			if err != nil {
				t.Fatal(err)
			}
			before = bytes.Clone(before)

			if _, err := rebuild.fn(path); err != nil {
				t.Fatal(err)
			}
			after, err := dev.ReadPages(0, int(old.NumPages))
			if err != nil {
				t.Fatalf("open device lost the old store: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("open device reads different pages after the rebuild")
			}
			reopened, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if reopened.NumVertices != newG.NumVertices() {
				t.Fatalf("reopened store has %d vertices, want the rebuilt %d", reopened.NumVertices, newG.NumVertices())
			}
		})
	}
}
