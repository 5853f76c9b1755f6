package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"github.com/optlab/opt/internal/graph"
)

// edgeListDigest is the sha256 of g in the benchmark's edge-list text form:
// one "u v\n" line per edge, ascending (u, v), u < v.
func edgeListDigest(g *graph.Graph) string {
	h := sha256.New()
	var line []byte
	g.Edges(func(u, v graph.VertexID) bool {
		line = strconv.AppendUint(line[:0], uint64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(v), 10)
		line = append(line, '\n')
		h.Write(line)
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsGolden pins the generators' output bit for bit. The R-MAT
// rows are the benchmark's own graphs (dataset density, vertex count, seed
// 1, degree-ordered as the benchmark orders them), so a generator or
// builder change that re-draws a graph fails here before it silently
// re-bases every benchmark number. Never edit a digest to make a change
// pass: a new digest means a different graph.
func TestGeneratorsGolden(t *testing.T) {
	proxy := func(dataset string, vertices int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			d, err := DatasetByName(dataset)
			if err != nil {
				return nil, err
			}
			g, err := RMAT(DefaultRMAT(vertices, int64(float64(vertices)*d.Density), 1))
			if err != nil {
				return nil, err
			}
			og, _ := graph.DegreeOrder(g)
			return og, nil
		}
	}
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
		edges int64
		want  string
	}{
		{"rmat/lj-4000", proxy("lj", 4000), 54311, "c2647e7fddb45497111a3ee2f891f7d4603f24983669cad27195860064e7cc65"},
		{"rmat/lj-16000", proxy("lj", 16000), 222833, "1f29d86bc8350b97da295be0ae980cfacf9bcefa70f179b6a13c31a660c97d18"},
		{"rmat/twitter-12000", proxy("twitter", 12000), 402943, "b819ac448a40ba4647b38d4c54583ed1968150d677bc5754aa59be436f5b6c01"},
		{"erdos-renyi", func() (*graph.Graph, error) { return ErdosRenyi(1500, 9000, 4) }, 8950, "3f825d994ddf2c29072b71766788d6de7446475606dcf10d69d83119ec43f9ea"},
		{"holme-kim", func() (*graph.Graph, error) {
			return HolmeKim(HolmeKimParams{NumVertices: 1500, M: 4, TriadProb: 0, Seed: 6})
		}, 5990, "cafea9489ef3b23f2485de88e16dc3c359c5b322f83ee33e0c35caaca9d7ac3c"},
		// Triad formation picks the k-th neighbour of the last target in the
		// order its edges were added.
		{"holme-kim/triad-0.5", func() (*graph.Graph, error) {
			return HolmeKim(HolmeKimParams{NumVertices: 1500, M: 4, TriadProb: 0.5, Seed: 6})
		}, 5990, "c9f66a92227082b710057418171f5ee1d1cae080e72d87155536b92f625d82bd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := edgeListDigest(g); g.NumEdges() != c.edges || got != c.want {
				t.Errorf("|E| = %d, digest %s; want |E| = %d, digest %s", g.NumEdges(), got, c.edges, c.want)
			}
		})
	}
}
