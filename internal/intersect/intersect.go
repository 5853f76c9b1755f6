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

// AdaptiveBitmap intersects a and b like Adaptive, unless set is a prebuilt
// membership set holding b's elements: then every x ∈ a is probed against
// it, len(a) independent loads whatever len(b) is. The caller owns the set's
// lifecycle (Prober: build once per fixed list, clear after) and decides
// with ProbePays whether building it is worth it. The set may hold more of
// b's list than b itself, as long as the surplus lies below everything in a
// — which is what lets a caller cut both lists to the ids that can still
// close a triangle without rebuilding the set.
func AdaptiveBitmap(dst, a, b []uint32, set *bits.Set) []uint32 {
	if set != nil {
		return set.AppendMembers(dst, a)
	}
	return Adaptive(dst, a, b)
}

// AdaptiveBitmapCount returns |a ∩ b| under AdaptiveBitmap's contract, for
// runs that count triangles without listing them.
func AdaptiveBitmapCount(a, b []uint32, set *bits.Set) int {
	if set != nil {
		return set.CountMembers(a)
	}
	return AdaptiveCount(a, b)
}

// ProbePays is the cost rule of the edge kernels: one list — the fixed side,
// n≻ of the record being processed — is intersected with k partners' lists.
// Merging pays up to |fixed| steps per partner, k·|fixed| in all; a
// membership set over the fixed side costs 2·|fixed| to build and clear and
// then makes every pair a probe of the streamed side alone, the
// min(|n≻(u)|, |n≻(v)|)-or-better of Eq. 3. So the set pays from the third
// partner on. Probes of a sorted list are independent loads walking the set
// forward, where a merge is one data-dependent chain of unpredictable
// branches, which is why the rule needs no term for |V|.
func ProbePays(k int) bool { return k > 2 }

// Prober owns the membership set the edge kernels probe, reused from record
// to record: empty between records, so building and clearing it costs
// O(|fixed|), never O(|V|). Not safe for concurrent use; one per worker.
type Prober struct {
	set *bits.Set
}

// Fix returns the set holding fixed when its k partners make a set pay
// (ProbePays), and nil when the pairs are to be merged. numVertices, the
// same on every call, bounds every id the caller will ever fix. The caller hands the result — nil or
// not — to AdaptiveBitmap or AdaptiveBitmapCount for each partner and then
// to Unfix.
func (p *Prober) Fix(fixed []uint32, k, numVertices int) *bits.Set {
	if !ProbePays(k) {
		return nil
	}
	if p.set == nil {
		p.set = bits.NewSet(numVertices)
	}
	p.set.AddAll(fixed)
	return p.set
}

// Unfix empties a set returned by Fix for the same list; a nil set is a
// no-op.
func Unfix(set *bits.Set, fixed []uint32) {
	if set != nil {
		set.RemoveAll(fixed)
	}
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
