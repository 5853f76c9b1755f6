package storage

import (
	"path/filepath"
	"testing"

	"github.com/optlab/opt/internal/gen"
)

// ljStoreSpans builds the sparse benchmark workloads' input — the
// degree-ordered 16 000-vertex R-MAT proxy of lj's |E|/|V| density on
// 4096-byte pages — under codec and returns its pages cut the way the engine
// reads them, one slice per AlignedRange chunk.
func ljStoreSpans(tb testing.TB, codec string) (*Store, [][]byte) {
	tb.Helper()
	d, err := gen.DatasetByName("lj")
	if err != nil {
		tb.Fatal(err)
	}
	d.Seed = 1
	g, err := d.Proxy(16000)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := BuildFileCodec(filepath.Join(tb.TempDir(), "lj.optstore"), g, 4096, codec)
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := s.Device()
	if err != nil {
		tb.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	var spans [][]byte
	for pg := uint32(0); pg < s.NumPages; {
		n := s.AlignedRange(pg, 1)
		data, err := dev.ReadPages(pg, n)
		if err != nil {
			tb.Fatal(err)
		}
		spans = append(spans, data)
		pg += uint32(n)
	}
	return s, spans
}

// BenchmarkDecodePass is one decode of every chunk of the lj-density store
// into recycled slices, as the engine does it, per codec; the -reference
// rows run the byte-at-a-time decoders of reference_test.go over the same
// pages, so one run gives the ratio the product's decoders are held to.
func BenchmarkDecodePass(b *testing.B) {
	type decodeFunc func(dst []VertexRec, arena []uint32, c Codec, pageSize int, data []byte) ([]VertexRec, []uint32, error)
	for _, codec := range codecNames {
		s, spans := ljStoreSpans(b, codec)
		for _, impl := range []struct {
			name   string
			decode decodeFunc
		}{
			{codec, DecodeRangeAppend},
			{codec + "-reference", decodeRangeAppendReference},
		} {
			b.Run(impl.name, func(b *testing.B) {
				var recs []VertexRec
				var arena []uint32
				values := 0
				pass := func() {
					values = 0
					for _, data := range spans {
						var err error
						recs, arena, err = impl.decode(recs[:0], arena[:0], s.codec, s.PageSize, data)
						if err != nil {
							b.Fatal(err)
						}
						values += len(arena)
					}
				}
				pass() // grows both slices to their steady-state capacity
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				if int64(values) != 2*s.NumEdges {
					b.Fatalf("decoded %d values, want %d", values, 2*s.NumEdges)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
			})
		}
	}
}
