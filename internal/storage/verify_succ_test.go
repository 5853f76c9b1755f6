package storage_test

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// TestVerifyChecksSuccessorSplit: a v3 store whose successor directory moves
// two entries by +1 and −1 opens, since the entries still sum to |E|, but
// Verify must fail on it with storage.ErrCorruptPage, on either codec, and
// so must a decode of each of the two records.
func TestVerifyChecksSuccessorSplit(t *testing.T) {
	raw, err := gen.RMAT(gen.DefaultRMAT(256, 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	for _, codec := range storage.Codecs() {
		t.Run(codec, func(t *testing.T) {
			st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), "g.optstore"), g, 128, codec)
			if err != nil {
				t.Fatal(err)
			}
			bad, up, down := testutil.ShiftedSuccStore(t, st)
			dev, err := bad.Device()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dev.Close() }()
			if _, err := storage.Verify(bad, dev); !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("Verify = %v, want storage.ErrCorruptPage", err)
			}
			for _, v := range []uint32{up, down} {
				first := bad.FirstPageOf(v)
				data, err := dev.ReadPages(first, bad.AlignedRange(first, 1))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := bad.DecodeAt(nil, nil, first, data); !errors.Is(err, storage.ErrCorruptPage) {
					t.Fatalf("decoding the chunk of vertex %d: err = %v, want storage.ErrCorruptPage", v, err)
				}
			}
		})
	}
}
