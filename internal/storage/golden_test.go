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
// number built on it would silently re-base. The data region — the pages
// from dataOffset on — is pinned on its own as well: it has been the same
// since format v2, whose whole-file digests were d874f458… (raw) and
// f5be9c8c… (deltavarint); format v3 changed only the header and the
// vertex directory.
func TestStreamingBuildGolden(t *testing.T) {
	dir := t.TempDir()
	el := filepath.Join(dir, "golden.el")
	writeGoldenEdgeList(t, el)
	want := map[string]string{
		CodecRaw:         "60754eab1e20503e61719375772cab7325adab1139638266fd7b29ed9387c507",
		CodecDeltaVarint: "73ef60613496db54d5e82594beaa38220b52dabe855c175dfbfde8dd641c280b",
	}
	wantData := map[string]string{
		CodecRaw:         "d94cf310270bff6d55134e1932228609afa07647aeb6d1afe3ac7c0b1ae62569",
		CodecDeltaVarint: "590a7b38c28a352c8fe6ab4edd2544711b6d541ecca9f889e0280d07f54365ce",
	}
	for _, codec := range []string{CodecRaw, CodecDeltaVarint} {
		for _, runSize := range []int{0, 1000} {
			t.Run(fmt.Sprintf("%s/run%d", codec, runSize), func(t *testing.T) {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.optstore", codec, runSize))
				s, err := BuildFileStreaming(path, EdgeListFileScanner{Path: el}, StreamBuildOptions{
					PageSize: 1024, TempDir: dir, RunSize: runSize, DegreeOrder: true, Codec: codec,
				})
				if err != nil {
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
				sum = sha256.Sum256(b[s.dataOffset:])
				if got := hex.EncodeToString(sum[:]); got != wantData[codec] {
					t.Errorf("data region digest %s, want %s", got, wantData[codec])
				}
			})
		}
	}
}
