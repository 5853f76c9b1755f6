package storage

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeGoldenEdgeList writes the fixed text edge list the store golden test
// builds from: skewed degrees (so the degree ordering matters), duplicate
// and reversed edges, self-loops, comment and blank lines, tab separators,
// and ids 0–4 never used (isolated vertices at the front of the id range).
func writeGoldenEdgeList(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	rng := rand.New(rand.NewSource(17))
	const n = 3000
	fmt.Fprintln(w, "# golden edge list")
	for i := 0; i < 24_000; i++ {
		r := rng.Float64()
		u := 5 + rng.Intn(n)
		v := 5 + int(r*r*n)
		switch i % 97 {
		case 0:
			fmt.Fprintf(w, "%d %d\n", u, u)
		case 1:
			fmt.Fprintln(w, "% comment")
		case 2:
			fmt.Fprintln(w)
		case 3:
			fmt.Fprintf(w, "\t%d\t%d\n", v, u)
		default:
			fmt.Fprintf(w, "%d %d\n", u, v)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingBuildGolden pins the streaming builder's store file bit for
// bit, for both codecs, whether the external sort stays in memory or
// spills. A new digest means a different store, and every benchmark
// number built on it would silently re-base.
func TestStreamingBuildGolden(t *testing.T) {
	dir := t.TempDir()
	el := filepath.Join(dir, "golden.el")
	writeGoldenEdgeList(t, el)
	want := map[string]string{
		CodecRaw:         "d874f4581fd141719278496873d5629cc602af4adbff11cff1775c2836c13de6",
		CodecDeltaVarint: "f5be9c8cda737580959f7ceddd2315695a94f47f5cf7937ee7c28c8b838f773f",
	}
	for _, codec := range []string{CodecRaw, CodecDeltaVarint} {
		for _, runSize := range []int{0, 1000} {
			t.Run(fmt.Sprintf("%s/run%d", codec, runSize), func(t *testing.T) {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.optstore", codec, runSize))
				if _, err := BuildFileStreaming(path, EdgeListFileScanner{Path: el}, StreamBuildOptions{
					PageSize: 1024, TempDir: dir, RunSize: runSize, DegreeOrder: true, Codec: codec,
				}); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[codec] {
					t.Errorf("store file digest %s, want %s", got, want[codec])
				}
			})
		}
	}
}
