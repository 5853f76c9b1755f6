package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasic(t *testing.T) {
	s := NewSet(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("fresh set Count = %d, want 0", s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count after Remove = %d, want 6", got)
	}
}

func TestSetContainsOutOfRange(t *testing.T) {
	s := NewSet(10)
	if s.Contains(-1) {
		t.Error("Contains(-1) = true")
	}
	if s.Contains(10) {
		t.Error("Contains(10) = true")
	}
	if s.Contains(1000) {
		t.Error("Contains(1000) = true")
	}
}

func TestSetAddIdempotent(t *testing.T) {
	s := NewSet(64)
	s.Add(5)
	s.Add(5)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count after duplicate Add = %d, want 1", got)
	}
}

func TestSetClear(t *testing.T) {
	s := NewSet(200)
	for i := 0; i < 200; i += 3 {
		s.Add(i)
	}
	s.Clear()
	if got := s.Count(); got != 0 {
		t.Fatalf("Count after Clear = %d, want 0", got)
	}
	if s.Len() != 200 {
		t.Fatalf("Len after Clear = %d, want 200", s.Len())
	}
}

func TestSetNegativeCapacity(t *testing.T) {
	s := NewSet(-5)
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Contains(0) {
		t.Error("Contains(0) = true on empty set")
	}
}

func TestAndCount(t *testing.T) {
	a := NewSet(256)
	b := NewSet(256)
	for i := 0; i < 256; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 256; i += 3 {
		b.Add(i)
	}
	// multiples of 6 in [0,256): 0,6,...,252 -> 43 values
	if got := a.AndCount(b); got != 43 {
		t.Fatalf("AndCount = %d, want 43", got)
	}
	if got := b.AndCount(a); got != 43 {
		t.Fatalf("AndCount reversed = %d, want 43", got)
	}
}

func TestAndCountDifferentCapacities(t *testing.T) {
	a := NewSet(64)
	b := NewSet(1024)
	a.Add(10)
	b.Add(10)
	b.Add(700)
	if got := a.AndCount(b); got != 1 {
		t.Fatalf("AndCount = %d, want 1", got)
	}
	if got := b.AndCount(a); got != 1 {
		t.Fatalf("AndCount reversed = %d, want 1", got)
	}
}

func TestOr(t *testing.T) {
	a := NewSet(128)
	b := NewSet(128)
	a.Add(1)
	b.Add(2)
	b.Add(127)
	a.Or(b)
	for _, i := range []int{1, 2, 127} {
		if !a.Contains(i) {
			t.Errorf("Contains(%d) = false after Or", i)
		}
	}
	if got := a.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestForEachOrder(t *testing.T) {
	s := NewSet(300)
	want := []int{0, 7, 63, 64, 190, 299}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestAppendToOrder(t *testing.T) {
	s := NewSet(300)
	want := []uint32{0, 7, 63, 64, 190, 299}
	for i := len(want) - 1; i >= 0; i-- {
		s.Add(int(want[i]))
	}
	got := s.AppendTo([]uint32{1000})
	if len(got) != len(want)+1 || got[0] != 1000 {
		t.Fatalf("AppendTo onto [1000] = %v, want it followed by %v", got, want)
	}
	for i := range want {
		if got[i+1] != want[i] {
			t.Fatalf("AppendTo order: got %v, want %v", got[1:], want)
		}
	}
}

// TestSetAgainstMap cross-checks the bitset against a map-based model under a
// random operation sequence.
func TestSetAgainstMap(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(42))
	s := NewSet(n)
	model := make(map[int]bool)
	for op := 0; op < 5000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(i)
			model[i] = true
		case 1:
			s.Remove(i)
			delete(model, i)
		case 2:
			if s.Contains(i) != model[i] {
				t.Fatalf("op %d: Contains(%d) = %v, model says %v", op, i, s.Contains(i), model[i])
			}
		}
	}
	if s.Count() != len(model) {
		t.Fatalf("Count = %d, model has %d", s.Count(), len(model))
	}
}

// Property: AndCount is commutative and bounded by each operand's Count.
func TestAndCountProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := NewSet(1 << 16)
		b := NewSet(1 << 16)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		ab, ba := a.AndCount(b), b.AndCount(a)
		return ab == ba && ab <= a.Count() && ab <= b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The list operations are what the edge kernels build, probe and empty a
// reused set with: they must agree with Add / Contains / Remove one element
// at a time, and treat an id beyond the capacity as absent.
func TestListOperations(t *testing.T) {
	s := NewSet(200)
	held := []uint32{0, 3, 63, 64, 127, 199}
	s.AddAll(held)
	if s.Count() != len(held) {
		t.Fatalf("AddAll left %d bits, want %d", s.Count(), len(held))
	}
	probe := []uint32{0, 1, 3, 62, 63, 64, 65, 128, 199, 200, 255, 256, 1 << 20}
	want := []uint32{0, 3, 63, 64, 199}
	if got := s.CountMembers(probe); got != len(want) {
		t.Errorf("CountMembers = %d, want %d", got, len(want))
	}
	got := s.AppendMembers([]uint32{42}, probe)
	if len(got) != 1+len(want) || got[0] != 42 {
		t.Fatalf("AppendMembers = %v, want 42 then %v", got, want)
	}
	for i, x := range want {
		if got[1+i] != x || !s.Contains(int(x)) {
			t.Fatalf("AppendMembers = %v, want 42 then %v", got, want)
		}
	}
	s.RemoveAll(held)
	if s.Count() != 0 {
		t.Fatalf("RemoveAll left %d bits", s.Count())
	}
}
