// Package bits provides a dense bitset used for constant-time vertex
// membership tests and for the boolean adjacency-matrix rows of the AYZ
// matrix-multiplication triangle counter.
package bits

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity dense bitset over [0, n).
type Set struct {
	words []uint64
	n     int
}

// NewSet returns a Set able to hold bits in [0, n).
func NewSet(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set (the n given to NewSet).
func (s *Set) Len() int { return s.n }

// Add sets bit i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set. Out-of-range i reports false.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// AddAll sets the bit of every element of list, RemoveAll clears them: a set
// reused across many short-lived memberships is built and emptied in
// O(|list|), not O(n). Both panic on an element out of range.
func (s *Set) AddAll(list []uint32) {
	for _, x := range list {
		s.words[x/wordBits] |= 1 << (x % wordBits)
	}
}

// RemoveAll clears the bit of every element of list.
func (s *Set) RemoveAll(list []uint32) {
	for _, x := range list {
		s.words[x/wordBits] &^= 1 << (x % wordBits)
	}
}

// CountMembers returns how many elements of list are in the set. Elements
// out of range count as absent.
func (s *Set) CountMembers(list []uint32) int {
	words := s.words
	n := 0
	for _, x := range list {
		if w := int(x / wordBits); w < len(words) {
			n += int(words[w] >> (x % wordBits) & 1)
		}
	}
	return n
}

// AppendMembers appends to dst the elements of list that are in the set, in
// list order. Elements out of range count as absent.
func (s *Set) AppendMembers(dst, list []uint32) []uint32 {
	words := s.words
	for _, x := range list {
		if w := int(x / wordBits); w < len(words) && words[w]>>(x%wordBits)&1 != 0 {
			dst = append(dst, x)
		}
	}
	return dst
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear resets every bit to zero, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// AndCount returns |s ∩ t| without materialising the intersection. The two
// sets may have different capacities; bits beyond the shorter one count as
// zero.
func (s *Set) AndCount(t *Set) int {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// Or sets s to s ∪ t. t must not have larger capacity than s.
func (s *Set) Or(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AppendTo appends every member to dst in ascending order.
func (s *Set) AppendTo(dst []uint32) []uint32 {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, uint32(wi*wordBits+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}
