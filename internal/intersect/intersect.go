// Package intersect provides the sorted-adjacency-list intersection kernels
// at the heart of every triangulation method in this repository. All inputs
// are strictly increasing []uint32 slices (vertex ids under the degree-based
// ordering). The package also exposes MinCost, the CPU-cost model of Eq. 3
// in the paper: with an O(1) membership hash, intersecting n≻(u) and n≻(v)
// costs min(|n≻(u)|, |n≻(v)|) operations.
package intersect

import (
	"sort"

	"github.com/optlab/opt/internal/bits"
)

// MinCost returns the Eq. 3 cost model value min(len(a), len(b)).
func MinCost(a, b []uint32) int64 {
	if len(a) < len(b) {
		return int64(len(a))
	}
	return int64(len(b))
}

// Merge intersects two sorted slices with a linear merge scan, appending the
// common elements to dst and returning it. dst may be nil.
func Merge(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// MergeCount returns |a ∩ b| using a linear merge scan.
func MergeCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Galloping intersects a short sorted slice a against a long sorted slice b
// using exponential (galloping) search, appending common elements to dst.
// It is preferable when len(b) >> len(a).
func Galloping(dst, a, b []uint32) []uint32 {
	lo := 0
	for _, x := range a {
		// Gallop forward to find the range that may contain x.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search within (lo-1, hi].
		k := lo + sort.Search(hi-lo, func(i int) bool { return b[lo+i] >= x })
		if k < len(b) && b[k] == x {
			dst = append(dst, x)
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(b) {
			break
		}
	}
	return dst
}

// gallopRatio is the length ratio beyond which Adaptive switches from the
// merge scan to galloping search.
const gallopRatio = 32

// Adaptive intersects a and b, choosing merge or galloping by the length
// ratio, appending common elements to dst.
func Adaptive(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a)*gallopRatio < len(b) {
		return Galloping(dst, a, b)
	}
	return Merge(dst, a, b)
}

// bitmapRatio is the length ratio beyond which AdaptiveBitmap prefers the
// bitset probe over merge/galloping: probing is O(len(a)) with a ~1-cycle
// membership test, so it wins once the fixed side b (the hub list backing
// set) is much longer than the streamed side a.
const bitmapRatio = 8

// Bitmap intersects a against b using a prebuilt dense membership set over
// b's elements: every x ∈ a with set.Contains(x) is appended to dst. It is
// the kernel of choice for hub vertices, where one long adjacency list is
// intersected against many short ones and the O(|b|) set build amortises
// across partners. set must contain exactly the elements of b; a nil set
// falls back to Adaptive.
func Bitmap(dst, a, b []uint32, set *bits.Set) []uint32 {
	if set == nil {
		return Adaptive(dst, a, b)
	}
	for _, x := range a {
		if set.Contains(int(x)) {
			dst = append(dst, x)
		}
	}
	return dst
}

// AdaptiveBitmap intersects a and b like Adaptive, but when set is a
// prebuilt membership set over b and b dominates a by bitmapRatio it uses
// the constant-time bitset probe instead. The caller owns the set's
// lifecycle (build once per hub list, clear after).
func AdaptiveBitmap(dst, a, b []uint32, set *bits.Set) []uint32 {
	if set != nil && len(a)*bitmapRatio <= len(b) {
		return Bitmap(dst, a, b, set)
	}
	return Adaptive(dst, a, b)
}

// AdaptiveCount returns |a ∩ b| using the adaptive strategy.
func AdaptiveCount(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a)*gallopRatio < len(b) {
		n := 0
		lo := 0
		for _, x := range a {
			step := 1
			hi := lo
			for hi < len(b) && b[hi] < x {
				lo = hi + 1
				hi += step
				step <<= 1
			}
			if hi > len(b) {
				hi = len(b)
			}
			k := lo + sort.Search(hi-lo, func(i int) bool { return b[lo+i] >= x })
			if k < len(b) && b[k] == x {
				n++
				lo = k + 1
			} else {
				lo = k
			}
			if lo >= len(b) {
				break
			}
		}
		return n
	}
	return MergeCount(a, b)
}

// Contains reports whether sorted slice a contains x, by binary search.
func Contains(a []uint32, x uint32) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= x })
	return i < len(a) && a[i] == x
}

// UpperBound returns the index of the first element of sorted slice a that
// is strictly greater than x. The suffix a[UpperBound(a,x):] is n≻ relative
// to x; the prefix a[:LowerBound(a,x)] is n≺.
func UpperBound(a []uint32, x uint32) int {
	return sort.Search(len(a), func(i int) bool { return a[i] > x })
}

// LowerBound returns the index of the first element of sorted slice a that
// is greater than or equal to x.
func LowerBound(a []uint32, x uint32) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= x })
}
