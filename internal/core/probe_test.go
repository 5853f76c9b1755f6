package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/optlab/opt/internal/bits"
)

// checkMembersAbove compares the external kernel's suffix probe — the
// members of list above v, found walking list back from its end — with the
// cut it replaces: nsucc(list, v), then CountMembers / AppendMembers.
func checkMembersAbove(t *testing.T, set *bits.Set, list []uint32, v uint32) {
	t.Helper()
	cut := nsucc(list, v)
	if got, want := set.CountMembersAbove(list, v), set.CountMembers(cut); got != want {
		t.Fatalf("CountMembersAbove(%v, %d) = %d, nsucc + CountMembers %d", list, v, got, want)
	}
	prefix := []uint32{7, 3} // what the listing path's buffer may already hold
	got := set.AppendMembersAbove(slices.Clone(prefix), list, v)
	want := set.AppendMembers(slices.Clone(prefix), cut)
	if !slices.Equal(got, want) {
		t.Fatalf("AppendMembersAbove(%v, %d) = %v, nsucc + AppendMembers %v", list, v, got, want)
	}
}

// TestMembersAboveMatchesCut covers the shapes the kernel meets: an empty
// list, v above and below every element, v equal to an element, ids at
// and around word boundaries, ids beyond the set's capacity, and random
// lists against random sets.
func TestMembersAboveMatchesCut(t *testing.T) {
	set := bits.NewSet(200)
	for _, x := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 191, 192, 199} {
		set.Add(x)
	}
	lists := [][]uint32{
		nil,
		{},
		{5},
		{63},
		{64},
		{0, 63, 64, 127, 128, 191, 192},
		{1, 62, 65, 129, 150, 199},
		{0, 1, 2, 3, 63, 64, 65, 200, 255, 256, 1 << 20}, // the tail lies beyond the set
	}
	vs := []uint32{0, 1, 62, 63, 64, 65, 127, 128, 198, 199, 200, 1 << 20, 1<<32 - 1}
	for _, list := range lists {
		for _, v := range vs {
			checkMembersAbove(t, set, list, v)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for range 500 {
		n := 1 + rng.Intn(300)
		set := bits.NewSet(n)
		for range rng.Intn(n) {
			set.Add(rng.Intn(n))
		}
		var list []uint32
		for x := uint32(rng.Intn(4)); x < uint32(n+70) && len(list) < 120; x += 1 + uint32(rng.Intn(6)) {
			list = append(list, x)
		}
		checkMembersAbove(t, set, list, uint32(rng.Intn(n+80)))
	}
}

// FuzzMembersAbove is TestMembersAboveMatchesCut over arbitrary inputs:
// list is built ascending from the gaps in gaps, the set of capacity n
// from the ids in members.
func FuzzMembersAbove(f *testing.F) {
	f.Add(uint16(128), []byte{}, []byte{1, 2, 3}, uint32(5))                 // empty list
	f.Add(uint16(128), []byte{0, 1, 1, 9}, []byte{0, 1, 2, 11}, uint32(200)) // v above every element
	f.Add(uint16(128), []byte{3, 1, 1, 9}, []byte{3, 4, 5, 14}, uint32(0))   // v below every element
	f.Add(uint16(130), []byte{63, 1, 63, 1}, []byte{63, 64, 127, 128}, uint32(63))
	f.Add(uint16(64), []byte{62, 1, 1, 1, 200}, []byte{62, 63}, uint32(62)) // ids past the capacity
	f.Fuzz(func(t *testing.T, n uint16, gaps, members []byte, v uint32) {
		set := bits.NewSet(int(n))
		for _, m := range members {
			if int(m) < int(n) {
				set.Add(int(m))
			}
		}
		list := make([]uint32, 0, len(gaps))
		x := uint32(0)
		for i, g := range gaps {
			if i > 0 {
				g = max(g, 1) // strictly ascending
			}
			x += uint32(g)
			list = append(list, x)
		}
		checkMembersAbove(t, set, list, v)
	})
}
