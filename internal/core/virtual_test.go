package core

import (
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// TestVirtualCoresCorrectness: virtual scheduling must not change counts.
func TestVirtualCoresCorrectness(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(512, 6000, 19))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	st := buildStore(t, g, 128)
	for _, cores := range []int{1, 2, 6} {
		res, err := RunFile(st, Options{
			Mode: Parallel, VirtualCores: cores, MemoryPages: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Fatalf("cores=%d: triangles = %d, want %d", cores, res.Triangles, want)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("cores=%d: modelled elapsed = %v", cores, res.Elapsed)
		}
	}
}

// TestVirtualCoreSetMonotone: from one run, the modelled elapsed must be
// non-increasing in the core count and the speed-up bounded by it.
func TestVirtualCoreSetMonotone(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(1024, 14_000, 23))
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 256)
	set := []int{1, 2, 3, 4, 5, 6}
	res, err := RunFile(st, Options{
		Mode: Parallel, VirtualCoreSet: set,
		MemoryPages: int(st.NumPages) * 15 / 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VirtualElapsed) != len(set) {
		t.Fatalf("VirtualElapsed has %d entries, want %d", len(res.VirtualElapsed), len(set))
	}
	if res.Elapsed != res.VirtualElapsed[1] {
		t.Fatalf("Elapsed %v != VirtualElapsed[1] %v", res.Elapsed, res.VirtualElapsed[1])
	}
	base := res.VirtualElapsed[1]
	prev := base
	for _, c := range set[1:] {
		cur := res.VirtualElapsed[c]
		if cur > prev {
			t.Fatalf("elapsed increased at %d cores: %v > %v", c, cur, prev)
		}
		speedup := float64(base) / float64(cur)
		if speedup > float64(c)+1e-9 {
			t.Fatalf("speed-up %v at %d cores exceeds core count", speedup, c)
		}
		prev = cur
	}
	// At 6 cores a decently parallel workload should beat 1 core clearly.
	if res.VirtualElapsed[6] >= base {
		t.Fatal("no modelled speed-up at 6 cores")
	}
}

// TestVirtualMorphingPolicy: without morphing, the virtual schedule cannot
// balance a workload that is almost entirely external, so its makespan at
// 2 cores stays near the 1-core one; with morphing it should drop.
func TestVirtualMorphingPolicy(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(1024, 14_000, 29))
	g, _ := graph.DegreeOrder(raw)
	st := buildStore(t, g, 256)
	mem := int(st.NumPages) * 15 / 100

	run := func(disable bool) *Result {
		res, err := RunFile(st, Options{
			Mode: Parallel, VirtualCores: 2, MemoryPages: mem,
			DisableMorphing: disable, CollectIterStats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(false) // untimed: the first run warms the chunk free list for both
	withMorph := run(false)
	noMorph := run(true)
	if withMorph.Triangles != noMorph.Triangles {
		t.Fatal("counts disagree")
	}
	// Morphing can only help the makespan (same tasks, strictly larger
	// eligibility sets). Allow measurement jitter between the two runs.
	if float64(withMorph.Elapsed) > 1.35*float64(noMorph.Elapsed) {
		t.Fatalf("morphing hurt: %v vs %v", withMorph.Elapsed, noMorph.Elapsed)
	}
}

// TestVirtualSchedUnit exercises the scheduler's virtual accounting with
// deterministic synthetic durations fed straight into the assignment
// logic (no wall-clock measurement, so no flakiness).
func TestVirtualSchedUnit(t *testing.T) {
	s := newVirtualSched(true, []int{1, 2, 4})
	for i := 0; i < 8; i++ {
		s.mu.Lock()
		s.assignVirtualLocked(classExternal, 1_000_000) // 1ms each
		s.mu.Unlock()
	}
	one, two, four := s.maxClock(0), s.maxClock(1), s.maxClock(2)
	if one != 8_000_000 {
		t.Fatalf("1-core makespan = %v, want 8ms", one)
	}
	if two != 4_000_000 {
		t.Fatalf("2-core makespan = %v, want 4ms", two)
	}
	if four != 2_000_000 {
		t.Fatalf("4-core makespan = %v, want 2ms", four)
	}
}

// TestVirtualSchedPolicyUnit: without morphing, external tasks land only
// on external-home virtual cores (odd indices).
func TestVirtualSchedPolicyUnit(t *testing.T) {
	s := newVirtualSched(false, []int{4})
	for i := 0; i < 6; i++ {
		s.mu.Lock()
		s.assignVirtualLocked(classExternal, 1_000_000)
		s.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Cores 0 and 2 (internal home) must be empty; 1 and 3 carry 3ms each.
	clocks := s.vclocks[0]
	if clocks[0] != 0 || clocks[2] != 0 {
		t.Fatalf("internal-home cores got external work: %v", clocks)
	}
	if clocks[1] != 3_000_000 || clocks[3] != 3_000_000 {
		t.Fatalf("external-home cores unbalanced: %v", clocks)
	}
}

// TestVirtualSchedSingleCoreAcceptsBoth: a 1-core set takes both classes
// even without morphing (one thread must run everything).
func TestVirtualSchedSingleCoreAcceptsBoth(t *testing.T) {
	s := newVirtualSched(false, []int{1})
	s.mu.Lock()
	s.assignVirtualLocked(classInternal, 1_000_000)
	s.assignVirtualLocked(classExternal, 2_000_000)
	s.mu.Unlock()
	if got := s.maxClock(0); got != 3_000_000 {
		t.Fatalf("1-core makespan = %v, want 3ms", got)
	}
}
