package radix

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortMatchesSlicesSort covers inputs where every byte varies, where
// only a few do (packed small ids), where none do, and odd pass counts
// (the result ends in scratch and is copied back).
func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() uint64{
		"full":        rng.Uint64,
		"packed-ids":  func() uint64 { return uint64(rng.Intn(12000))<<32 | uint64(rng.Intn(12000)) },
		"one-byte":    func() uint64 { return 0xabcd_0000_0000_0000 | uint64(rng.Intn(256))<<24 },
		"three-bytes": func() uint64 { return uint64(rng.Intn(1 << 24)) },
		"constant":    func() uint64 { return 42 },
	}
	for name, draw := range shapes {
		for _, n := range []int{0, 1, 2, 3, 100, 5000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = draw()
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			Sort(keys, make([]uint64, n+7))
			if !slices.Equal(keys, want) {
				t.Fatalf("%s, n=%d: radix order differs from slices.Sort", name, n)
			}
		}
	}
}
