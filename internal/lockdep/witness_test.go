//go:build optpoison

package lockdep

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Each test declares its own owner types, so its classes and orders are its
// own; reset clears the held lists and a trip between tests.
func reset(t *testing.T) {
	t.Cleanup(func() {
		witness.mu.Lock()
		witness.held, witness.orders, witness.tripped = nil, nil, ""
		witness.mu.Unlock()
	})
}

// panicOf runs f on a fresh goroutine and returns what it panicked with,
// "" when it returned.
func panicOf(f func()) string {
	out := make(chan string)
	go func() {
		defer func() {
			r := recover()
			if r == nil {
				out <- ""
				return
			}
			out <- fmt.Sprint(r)
		}()
		f()
	}()
	return <-out
}

func wantPanic(t *testing.T, got string, parts ...string) {
	t.Helper()
	if got == "" {
		t.Fatal("no panic")
	}
	for _, p := range parts {
		if !strings.Contains(got, p) {
			t.Errorf("panic %q does not mention %q", got, p)
		}
	}
}

// An A→B order followed by B→A on a goroutine that started after the first
// one ended: the two never overlap, and the second order still panics,
// naming both.
func TestInversionWithoutOverlap(t *testing.T) {
	reset(t)
	type a struct{}
	type b struct{}
	var ma Mutex[a]
	var mb Mutex[b]
	if got := panicOf(func() {
		ma.Lock()
		mb.Lock() // the A→B order
		mb.Unlock()
		ma.Unlock()
	}); got != "" {
		t.Fatalf("first order panicked: %s", got)
	}
	got := panicOf(func() {
		mb.Lock()
		defer mb.Unlock()
		ma.Lock() // B→A
		ma.Unlock()
	})
	wantPanic(t, got, "lock order inversion", "lockdep.a", "lockdep.b")
	// Both sites of both orders, none of them inside the witness.
	if n := strings.Count(got, "witness_test.go:"); n != 4 {
		t.Errorf("panic names %d sites in this file, want 4: %s", n, got)
	}
}

// A cycle closed through a third class is an inversion too.
func TestTransitiveInversion(t *testing.T) {
	reset(t)
	type a struct{}
	type b struct{}
	type c struct{}
	var ma Mutex[a]
	var mb Mutex[b]
	var mc Mutex[c]
	nest := func(outer, inner sync.Locker) func() {
		return func() {
			outer.Lock()
			defer outer.Unlock()
			inner.Lock()
			inner.Unlock()
		}
	}
	for _, f := range []func(){nest(&ma, &mb), nest(&mb, &mc)} {
		if got := panicOf(f); got != "" {
			t.Fatalf("consistent order panicked: %s", got)
		}
	}
	wantPanic(t, panicOf(nest(&mc, &ma)), "lock order inversion", "lockdep.a", "lockdep.b", "lockdep.c")
}

// Locking a lock the goroutine already holds panics instead of hanging.
func TestRelock(t *testing.T) {
	reset(t)
	type a struct{}
	var ma Mutex[a]
	wantPanic(t, panicOf(func() {
		ma.Lock()
		defer ma.Unlock()
		ma.Lock()
	}), "already holds", "lockdep.a")
}

// Two instances of one class nested have no order between them: another
// goroutine may nest them the other way round.
func TestSameClassNesting(t *testing.T) {
	reset(t)
	type a struct{}
	var m1, m2 Mutex[a]
	wantPanic(t, panicOf(func() {
		m1.Lock()
		defer m1.Unlock()
		m2.Lock()
		m2.Unlock()
	}), "a second lockdep.a")
}

// The witness is a checker, not a lock: one order from many goroutines at
// once, a Cond that parks and relocks through the witness, and a lock
// unlocked by another goroutine all pass.
func TestConsistentUse(t *testing.T) {
	reset(t)
	type a struct{}
	type b struct{}
	var ma Mutex[a]
	var mb Mutex[b]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ma.Lock()
				mb.Lock()
				mb.Unlock()
				ma.Unlock()
			}
		}()
	}
	wg.Wait()

	cond := sync.NewCond(&ma)
	ready := false
	go func() {
		ma.Lock()
		ready = true
		cond.Broadcast()
		ma.Unlock()
	}()
	ma.Lock()
	for !ready {
		cond.Wait()
	}
	mb.Lock()
	mb.Unlock()
	ma.Unlock()

	mb.Lock()
	unlocked := make(chan struct{})
	go func() {
		mb.Unlock()
		close(unlocked)
	}()
	<-unlocked
	if got := panicOf(func() {
		ma.Lock()
		mb.Lock()
		mb.Unlock()
		ma.Unlock()
	}); got != "" {
		t.Fatalf("panicked: %s", got)
	}
}

// After a report every Lock panics with it, so a recovered panic cannot
// hide the inversion.
func TestTripStays(t *testing.T) {
	reset(t)
	type a struct{}
	type z struct{}
	var ma Mutex[a]
	var mz Mutex[z]
	wantPanic(t, panicOf(func() {
		ma.Lock()
		defer ma.Unlock()
		ma.Lock()
	}), "already holds")
	wantPanic(t, panicOf(func() {
		mz.Lock()
		mz.Unlock()
	}), "already holds", "lockdep.a")
}
