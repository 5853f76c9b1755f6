package arena

import (
	"testing"
	"unsafe"
)

func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(&b[0])) }

func TestAcquireAligned(t *testing.T) {
	for _, align := range []int{512, 4096} {
		a := New(align)
		for _, n := range []int{1, 100, align - 1, align, align + 1, 3 * align} {
			b := a.Acquire(n)
			if len(b) != n {
				t.Fatalf("align %d: Acquire(%d) len = %d", align, n, len(b))
			}
			if addr(b)%uintptr(align) != 0 {
				t.Fatalf("align %d: Acquire(%d) address %#x not aligned", align, n, addr(b))
			}
			if cap(b) < n || cap(b)&(cap(b)-1) != 0 {
				t.Fatalf("align %d: Acquire(%d) cap = %d, want power-of-two class", align, n, cap(b))
			}
		}
	}
}

func TestReleaseRecycles(t *testing.T) {
	a := New(4096)
	b := a.Acquire(5000)
	p := addr(b)
	a.Release(b)
	c := a.Acquire(6000) // same 8192-byte class
	if addr(c) != p {
		t.Fatalf("recycled buffer address %#x, want %#x", addr(c), p)
	}
	if allocs, recycles := a.Stats(); allocs != 1 || recycles != 1 {
		t.Fatalf("stats = %d allocs, %d recycles; want 1, 1", allocs, recycles)
	}
}

func TestReleaseForeignDropped(t *testing.T) {
	a := New(4096)
	a.Release(make([]byte, 100))  // wrong class
	a.Release(make([]byte, 4096)) // right class, almost surely unaligned… either way:
	a.Release(nil)
	for size, l := range a.free {
		for _, b := range l {
			if addr(b)%4096 != 0 || cap(b) != size {
				t.Fatalf("foreign buffer admitted to class %d", size)
			}
		}
	}
}

func TestClassFor(t *testing.T) {
	a := New(512)
	for _, tc := range []struct{ n, want int }{
		{1, 512}, {512, 512}, {513, 1024}, {4096, 4096}, {4097, 8192},
	} {
		if got := a.classFor(tc.n); got != tc.want {
			t.Fatalf("classFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestSteadyStateZeroAllocs pins the arena's purpose: once warm, the
// acquire/release loop of the read path allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	a := New(4096)
	sizes := []int{4096, 5000, 16384}
	for _, n := range sizes { // warm every class
		a.Release(a.Acquire(n))
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, n := range sizes {
			b := a.Acquire(n)
			b[0] = 1
			a.Release(b)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", avg)
	}
}

func TestConcurrentUse(t *testing.T) {
	a := New(512)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				b := a.Acquire(1000 + i)
				b[len(b)-1] = byte(i)
				a.Release(b)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestRetentionBounded pins what one process-wide arena may keep: however
// many buffers are released at once, from however many goroutines, the
// free lists hold at most maxRetained bytes over all classes, and the rest
// go to the GC.
func TestRetentionBounded(t *testing.T) {
	a := New(4096)
	const size = 64 << 10
	held := 2 * maxRetained / size
	bufs := make([][]byte, held)
	for i := range bufs {
		bufs[i] = a.Acquire(size)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := g; i < held; i += 4 {
				a.Release(bufs[i])
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := len(a.free[size]); n*size != maxRetained || a.retained != maxRetained {
		t.Fatalf("%d buffers of %d bytes released, %d retained (%d bytes counted); want %d bytes", held, size, n, a.retained, maxRetained)
	}
	a.Release(a.Acquire(4096)) // another class, with no room left
	if len(a.free[4096]) != 0 {
		t.Fatal("a full arena retained a buffer of another class")
	}
	before, _ := a.Stats()
	for i := 0; i <= maxRetained/size; i++ {
		a.Acquire(size)
	}
	if allocs, _ := a.Stats(); allocs-before != 1 {
		t.Fatalf("%d acquisitions after the releases took %d fresh buffers, want 1", maxRetained/size+1, allocs-before)
	}
	if a.retained != 0 {
		t.Fatalf("empty free lists count %d bytes", a.retained)
	}
}
