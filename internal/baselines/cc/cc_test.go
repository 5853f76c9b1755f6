package cc

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// TestRemainderCloseFaults: a remainder file whose close fails fails the
// step that wrote it, the conversion and an iteration alike, so a short
// file never passes for a finished one.
func TestRemainderCloseFaults(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(256, 2000, 5))
	g, _ := graph.DegreeOrder(raw)
	st, err := storage.BuildFile(filepath.Join(t.TempDir(), "g.optstore"), g, 128)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := st.Device()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	cm := diskio.CostModel{PageSize: st.PageSize}
	clean, faulty := t.TempDir(), t.TempDir()
	defer diskio.FailClosesUnder(faulty)()

	if err := ConvertStore(context.Background(), st, dev, filepath.Join(faulty, "iter-0.ccg"), nil, cm); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("ConvertStore = %v, want ssd.ErrInjected", err)
	}
	cur := filepath.Join(clean, "iter-0.ccg")
	if err := ConvertStore(context.Background(), st, dev, cur, nil, cm); err != nil {
		t.Fatal(err)
	}
	if _, _, err := iterate(cur, filepath.Join(faulty, "iter-1.ccg"), 4*int64(st.PageSize), cm, new(int64), nil, nil); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("iterate = %v, want ssd.ErrInjected", err)
	}
}
