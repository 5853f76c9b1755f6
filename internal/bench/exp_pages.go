package bench

import (
	"fmt"

	"github.com/optlab/opt/internal/storage"
)

// Pages is the page-codec experiment (DESIGN.md §12): each Figure 3 dataset
// is built once per registered codec and OPT_serial runs end-to-end on every
// store at the paper's 15% buffer. The table records P(G) (the store's data
// page count, which the §3.3 cost model is linear in), bytes per undirected
// edge, the fractional P(G) reduction relative to the raw codec, and the
// end-to-end elapsed time — so a committed baseline can catch both
// compression and throughput regressions per (dataset, codec) row.
//
// elapsed_ms is deliberately a bare millisecond number (not a rounded
// duration string) so baseline comparison can parse it exactly.
func Pages(h *Harness) (*Table, error) {
	t := &Table{
		ID:    "pages",
		Title: "Page codecs: P(G), bytes/edge and OPT_serial end-to-end time per codec (15% buffer)",
		Header: []string{
			"dataset", "codec", "pages", "bytes/edge", "reduction", "triangles", "elapsed_ms",
		},
		Ratio: &Ratio{Column: "codec", Num: storage.CodecDeltaVarint, Den: storage.CodecRaw},
	}
	for _, name := range fig3Datasets {
		g, err := h.proxy(name)
		if err != nil {
			return nil, err
		}
		var rawPages uint32
		var rawTriangles int64
		for i, codec := range storage.Codecs() {
			st, err := h.storeCodec(name, g, codec)
			if err != nil {
				return nil, err
			}
			res, err := best(repetitions, func() (*runResult, error) {
				return h.runOPTSerial(st, budget(st, 0.15), nil)
			})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				rawPages, rawTriangles = st.NumPages, res.Triangles
			} else if res.Triangles != rawTriangles {
				return nil, fmt.Errorf("bench: pages: %s/%s counts diverge: %d vs raw %d",
					name, codec, res.Triangles, rawTriangles)
			}
			bytesPerEdge := 0.0
			if st.NumEdges > 0 {
				bytesPerEdge = float64(int64(st.NumPages)*int64(st.PageSize)) / float64(st.NumEdges)
			}
			reduction := 0.0
			if rawPages > 0 {
				reduction = 1 - float64(st.NumPages)/float64(rawPages)
			}
			t.Rows = append(t.Rows, []string{
				name,
				codec,
				fmt.Sprint(st.NumPages),
				fmt.Sprintf("%.2f", bytesPerEdge),
				fmt.Sprintf("%.3f", reduction),
				fmt.Sprint(res.Triangles),
				fmt.Sprintf("%.3f", float64(res.Elapsed.Nanoseconds())/1e6),
			})
		}
	}
	t.Notes = append(t.Notes,
		"reduction = 1 - pages(codec)/pages(raw); the §3.3 cost model is linear in pages",
		"the 15% buffer is taken from each store's own page count, as the paper defines M",
	)
	return t, nil
}
