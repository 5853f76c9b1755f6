package extsort

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzRadixSort checks the Sorter against slices.Sort. Every 8 bytes of
// input are one key, masked so that the bytes the mask clears are shared
// by all keys (as in packed vertex-id pairs); a run budget below 64 keys
// makes the sorter spill radix-sorted runs and merge them.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint64(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), uint8(3), ^uint64(0))
	f.Add([]byte("zyxwvutsrqponmlkjihgfedcba987654zyxwvuts"), uint8(1), uint64(0x0000_ffff_0000_ffff))
	f.Add(make([]byte, 200), uint8(7), uint64(0xff00))
	f.Add([]byte("abcdefg3abcdefg1abcdefg2"), uint8(0), ^uint64(0)) // one varying byte: an odd pass count
	f.Fuzz(func(t *testing.T, data []byte, runRaw uint8, mask uint64) {
		runSize := 0 // the default budget: one in-memory run
		if runRaw%4 != 0 {
			runSize = 1 + int(runRaw)%64
		}
		s := NewSorter(t.TempDir(), runSize)
		var want []uint64
		for ; len(data) >= 8; data = data[8:] {
			k := binary.LittleEndian.Uint64(data) & mask
			want = append(want, k)
			if err := s.Push(k); err != nil {
				t.Fatal(err)
			}
		}
		slices.Sort(want)
		var got []uint64
		if err := s.Sort(func(k uint64) error {
			got = append(got, k)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run budget %d: sorted %v, want %v", runSize, got, want)
		}
	})
}
