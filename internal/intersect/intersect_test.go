package intersect

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/optlab/opt/internal/bits"
)

func sortedUnique(xs []uint32) []uint32 {
	if len(xs) == 0 {
		return nil
	}
	s := append([]uint32(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func naiveIntersect(a, b []uint32) []uint32 {
	set := make(map[uint32]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var out []uint32
	for _, x := range b {
		if set[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMergeBasic(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 9, 10}
	want := []uint32{3, 5, 9}
	if got := Merge(nil, a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	if got := MergeCount(a, b); got != 3 {
		t.Fatalf("MergeCount = %d, want 3", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(nil, nil, []uint32{1, 2}); got != nil {
		t.Fatalf("Merge(nil, ...) = %v, want nil", got)
	}
	if got := MergeCount([]uint32{1}, nil); got != 0 {
		t.Fatalf("MergeCount = %d, want 0", got)
	}
}

func TestMergeAppendsToDst(t *testing.T) {
	dst := []uint32{99}
	got := Merge(dst, []uint32{1, 2}, []uint32{2, 3})
	want := []uint32{99, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge with dst = %v, want %v", got, want)
	}
}

func TestGallopingBasic(t *testing.T) {
	a := []uint32{5, 100, 900}
	b := make([]uint32, 0, 1000)
	for i := uint32(0); i < 1000; i++ {
		b = append(b, i)
	}
	want := []uint32{5, 100, 900}
	if got := Galloping(nil, a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("Galloping = %v, want %v", got, want)
	}
}

func TestGallopingNoMatch(t *testing.T) {
	a := []uint32{1, 3}
	b := []uint32{0, 2, 4}
	if got := Galloping(nil, a, b); len(got) != 0 {
		t.Fatalf("Galloping = %v, want empty", got)
	}
}

func TestKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(50), rng.Intn(2000)
		a := make([]uint32, na)
		b := make([]uint32, nb)
		for i := range a {
			a[i] = uint32(rng.Intn(3000))
		}
		for i := range b {
			b[i] = uint32(rng.Intn(3000))
		}
		sa, sb := sortedUnique(a), sortedUnique(b)
		want := naiveIntersect(sa, sb)
		wantLen := len(want)

		checks := map[string][]uint32{
			"Merge":     Merge(nil, sa, sb),
			"Galloping": Galloping(nil, sa, sb),
			"Adaptive":  Adaptive(nil, sa, sb),
		}
		for name, got := range checks {
			if len(got) == 0 && wantLen == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s = %v, want %v", trial, name, got, want)
			}
		}
		counts := map[string]int{
			"MergeCount":    MergeCount(sa, sb),
			"AdaptiveCount": AdaptiveCount(sa, sb),
		}
		for name, got := range counts {
			if got != wantLen {
				t.Fatalf("trial %d: %s = %d, want %d", trial, name, got, wantLen)
			}
		}
	}
}

// Property: intersection is commutative and bounded by min length, for all
// kernels, via testing/quick.
func TestIntersectionProperties(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := sortedUnique(xs), sortedUnique(ys)
		n1 := AdaptiveCount(a, b)
		n2 := AdaptiveCount(b, a)
		if n1 != n2 {
			return false
		}
		if int64(n1) > MinCost(a, b) {
			return false
		}
		return n1 == MergeCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: A ∩ A = A.
func TestIntersectionSelf(t *testing.T) {
	f := func(xs []uint32) bool {
		a := sortedUnique(xs)
		got := Adaptive(nil, a, a)
		if len(a) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCost(t *testing.T) {
	if got := MinCost([]uint32{1, 2, 3}, []uint32{1}); got != 1 {
		t.Fatalf("MinCost = %d, want 1", got)
	}
	if got := MinCost(nil, []uint32{1}); got != 0 {
		t.Fatalf("MinCost = %d, want 0", got)
	}
}

func TestContains(t *testing.T) {
	a := []uint32{2, 4, 6, 8}
	for _, x := range a {
		if !Contains(a, x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []uint32{0, 1, 3, 5, 7, 9} {
		if Contains(a, x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains on nil = true")
	}
}

func TestBounds(t *testing.T) {
	a := []uint32{10, 20, 20, 30}
	if got := UpperBound(a, 20); got != 3 {
		t.Errorf("UpperBound(20) = %d, want 3", got)
	}
	if got := LowerBound(a, 20); got != 1 {
		t.Errorf("LowerBound(20) = %d, want 1", got)
	}
	if got := UpperBound(a, 5); got != 0 {
		t.Errorf("UpperBound(5) = %d, want 0", got)
	}
	if got := UpperBound(a, 99); got != 4 {
		t.Errorf("UpperBound(99) = %d, want 4", got)
	}
	if got := LowerBound(a, 31); got != 4 {
		t.Errorf("LowerBound(31) = %d, want 4", got)
	}
}

// makeSet builds a membership set over the elements of b, as the hub path
// in core does once per hub adjacency list.
func makeSet(b []uint32, universe int) *bits.Set {
	s := bits.NewSet(universe)
	for _, x := range b {
		s.Add(int(x))
	}
	return s
}

func TestBitmapAgreesWithMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(60), rng.Intn(2000)
		a := make([]uint32, na)
		b := make([]uint32, nb)
		for i := range a {
			a[i] = uint32(rng.Intn(3000))
		}
		for i := range b {
			b[i] = uint32(rng.Intn(3000))
		}
		sa, sb := sortedUnique(a), sortedUnique(b)
		set := makeSet(sb, 3000)
		want := Merge(nil, sa, sb)
		if got := AdaptiveBitmap(nil, sa, sb, set); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("trial %d: AdaptiveBitmap = %v, want %v", trial, got, want)
		}
	}
}

func TestBitmapNilSetFallsBack(t *testing.T) {
	a := []uint32{1, 3, 5}
	b := []uint32{3, 4, 5}
	want := []uint32{3, 5}
	if got := AdaptiveBitmap(nil, a, b, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("AdaptiveBitmap(nil set) = %v, want %v", got, want)
	}
}

func TestBitmapAppendsToDst(t *testing.T) {
	dst := []uint32{42}
	b := []uint32{2, 3}
	got := AdaptiveBitmap(dst, []uint32{1, 2}, b, makeSet(b, 8))
	want := []uint32{42, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AdaptiveBitmap with dst = %v, want %v", got, want)
	}
}

// TestProbeRule pins the one comparison that replaced the hub-degree and
// length-ratio gates: a set is built from the third partner on, and a set,
// once given, is always probed — whatever the two lengths are. A set
// deliberately inconsistent with b exposes which branch ran.
func TestProbeRule(t *testing.T) {
	for k, want := range []bool{false, false, false, true, true} {
		if got := ProbePays(k); got != want {
			t.Errorf("ProbePays(%d) = %v, want %v", k, got, want)
		}
	}
	poison := bits.NewSet(100) // empty: a probe through it finds nothing
	a := seq(0, 10, 1)
	for _, b := range [][]uint32{seq(0, 90, 1), seq(0, 20, 1), seq(0, 3, 1)} {
		if got := AdaptiveBitmap(nil, a, b, poison); len(got) != 0 {
			t.Errorf("AdaptiveBitmap(|a|=10, |b|=%d) ignored its set: got %v", len(b), got)
		}
		if got := AdaptiveBitmapCount(a, b, poison); got != 0 {
			t.Errorf("AdaptiveBitmapCount(|a|=10, |b|=%d) ignored its set: got %d", len(b), got)
		}
	}
}

func BenchmarkBitmapSkewed(b *testing.B) {
	x := seq(0, 100, 1)
	y := seq(0, 1000000, 3)
	set := makeSet(y, 1000000)
	dst := make([]uint32, 0, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AdaptiveBitmap(dst[:0], x, y, set)
	}
	_ = dst
}

func BenchmarkMergeSimilarLengths(b *testing.B) {
	x := seq(0, 10000, 2)
	y := seq(1, 10000, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MergeCount(x, y)
	}
}

func BenchmarkGallopingSkewed(b *testing.B) {
	x := seq(0, 100, 1)
	y := seq(0, 1000000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AdaptiveCount(x, y)
	}
}

func seq(start, end, step uint32) []uint32 {
	var out []uint32
	for i := start; i < end; i += step {
		out = append(out, i)
	}
	return out
}
