package extsort

import (
	"errors"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"github.com/optlab/opt/internal/diskio"
	"github.com/optlab/opt/internal/ssd"
)

func collect(t *testing.T, s *Sorter) []uint64 {
	t.Helper()
	var out []uint64
	if err := s.Sort(func(k uint64) error {
		out = append(out, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSortInMemory(t *testing.T) {
	s := NewSorter(t.TempDir(), 100)
	for _, k := range []uint64{5, 3, 9, 1, 3} {
		if err := s.Push(k); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, s)
	want := []uint64{1, 3, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortSpillsAndMerges(t *testing.T) {
	const n = 10_000
	s := NewSorter(t.TempDir(), 512) // force ~20 runs
	rng := rand.New(rand.NewSource(3))
	counts := map[uint64]int{}
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(2000))
		counts[k]++
		if err := s.Push(k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Runs() < 10 {
		t.Fatalf("expected many spilled runs, got %d", s.Runs())
	}
	got := collect(t, s)
	if len(got) != n {
		t.Fatalf("merged %d keys, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("not sorted at %d: %d < %d", i, got[i], got[i-1])
		}
	}
	// Multiset preserved.
	for _, k := range got {
		counts[k]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("key %d count off by %d", k, c)
		}
	}
}

func TestSortEmpty(t *testing.T) {
	s := NewSorter(t.TempDir(), 0)
	if got := collect(t, s); len(got) != 0 {
		t.Fatalf("empty sorter yielded %v", got)
	}
}

func TestSorterMisuse(t *testing.T) {
	s := NewSorter(t.TempDir(), 10)
	_ = s.Push(1)
	if err := s.Sort(func(uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(2); err == nil {
		t.Fatal("Push after Sort: want error")
	}
	if err := s.Sort(func(uint64) error { return nil }); err == nil {
		t.Fatal("Sort twice: want error")
	}
}

// TestSorterLeavesNoRun: a run whose close fails is reported and removed
// by spill itself, and Close removes the runs of a sort never finished.
func TestSorterLeavesNoRun(t *testing.T) {
	empty := func(dir string) {
		t.Helper()
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%d files left in %s", len(entries), dir)
		}
	}
	dir := t.TempDir()
	restore := diskio.FailClosesUnder(dir)
	s := NewSorter(dir, 8) // a run every 4 keys
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		err = s.Push(uint64(i))
	}
	restore()
	if !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("Push spilling a run whose close fails = %v, want ssd.ErrInjected", err)
	}
	empty(dir)

	s = NewSorter(dir, 8)
	for i := 0; i < 20; i++ {
		if err := s.Push(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Runs() != 5 {
		t.Fatalf("spilled %d runs, want 5", s.Runs())
	}
	s.Close()
	s.Close()
	empty(dir)
	if err := s.Push(1); err == nil {
		t.Fatal("Push after Close: want error")
	}
}

func TestSortPropagatesCallbackError(t *testing.T) {
	s := NewSorter(t.TempDir(), 4)
	for i := 0; i < 20; i++ {
		_ = s.Push(uint64(i))
	}
	calls := 0
	err := s.Sort(func(uint64) error {
		calls++
		if calls == 3 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times, want 3", calls)
	}
}

var errStop = &stopErr{}

type stopErr struct{}

func (*stopErr) Error() string { return "stop" }

// Property: Sort is a permutation into ascending order, for arbitrary key
// multisets and run sizes.
func TestSortQuick(t *testing.T) {
	dir := t.TempDir()
	f := func(keys []uint64, runRaw uint8) bool {
		s := NewSorter(dir, 1+int(runRaw)%64)
		for _, k := range keys {
			if err := s.Push(k); err != nil {
				return false
			}
		}
		var got []uint64
		if err := s.Sort(func(k uint64) error { got = append(got, k); return nil }); err != nil {
			return false
		}
		if len(got) != len(keys) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSort sorts the streaming builder's keys for a graph of the
// dense-cpu workload's shape: both directions of 423 k edges over 12 000
// vertices, packed as src<<32 | dst, in one in-memory run.
func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 0, 846_000)
	for len(keys) < cap(keys) {
		u, v := uint64(rng.Intn(12000)), uint64(rng.Intn(12000))
		keys = append(keys, u<<32|v, v<<32|u)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(dir, 0)
		for _, k := range keys {
			if err := s.Push(k); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Sort(func(uint64) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
