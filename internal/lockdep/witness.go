//go:build optpoison

package lockdep

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"unsafe"
)

// Mutex is a sync.Mutex whose class is Owner, the type declaring it. In
// this build every Lock and Unlock goes through the witness.
type Mutex[Owner any] struct{ mu sync.Mutex }

// Lock checks the acquisition against every order recorded so far, records
// the orders it adds, and then locks.
func (m *Mutex[Owner]) Lock() {
	acquire(unsafe.Pointer(m), reflect.TypeFor[Owner]())
	m.mu.Lock()
}

// Unlock takes the lock off its goroutine's held list and unlocks.
func (m *Mutex[Owner]) Unlock() {
	release(unsafe.Pointer(m))
	m.mu.Unlock()
}

// site is the call stack of one Lock, innermost caller first.
type site [6]uintptr

// String names the first frame that is neither a Mutex method nor in sync
// (sync.Cond.Wait relocks its Locker).
func (s site) String() string {
	n := 0
	for n < len(s) && s[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(s[:n])
	for {
		f, more := frames.Next()
		if !strings.HasPrefix(f.Function, "sync.") && !strings.Contains(f.Function, "lockdep.(*Mutex[") {
			return fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
		}
		if !more {
			return "?"
		}
	}
}

// holding is one lock a goroutine holds, with where it was locked.
type holding struct {
	lock  unsafe.Pointer
	class reflect.Type
	at    site
}

// order is the first witness of "class to locked while class from held".
type order struct{ from, to site }

var witness struct {
	mu      sync.Mutex
	held    map[uintptr][]holding                   // goroutine → its locks, in acquisition order
	orders  map[reflect.Type]map[reflect.Type]order // from → to → first witness
	tripped string                                  // the first report, repeated by every later Lock
}

func acquire(lock unsafe.Pointer, class reflect.Type) {
	next := holding{lock: lock, class: class}
	runtime.Callers(3, next.at[:])
	g := goroutine()
	w := &witness
	w.mu.Lock()
	if w.held == nil {
		w.held = map[uintptr][]holding{}
		w.orders = map[reflect.Type]map[reflect.Type]order{}
	}
	report := w.tripped
	for _, prev := range w.held[g] {
		if report != "" {
			break
		}
		report = check(g, prev, next)
	}
	if report == "" {
		w.held[g] = append(w.held[g], next)
	} else {
		w.tripped = report
	}
	w.mu.Unlock()
	if report != "" {
		panic("lockdep: " + report)
	}
}

// check judges locking next while prev is held, recording the order when
// it is new and consistent. The caller holds witness.mu.
func check(g uintptr, prev, next holding) string {
	switch {
	case prev.lock == next.lock:
		return fmt.Sprintf("goroutine %#x locks %s at %s, which it already holds (locked at %s)",
			g, next.class, next.at, prev.at)
	case prev.class == next.class:
		return fmt.Sprintf("goroutine %#x locks a second %s at %s while holding one (locked at %s): two locks of one class have no order",
			g, next.class, next.at, prev.at)
	}
	w := &witness
	if _, seen := w.orders[prev.class][next.class]; seen {
		return ""
	}
	if back := path(next.class, prev.class); back != nil {
		var b strings.Builder
		fmt.Fprintf(&b, "lock order inversion: goroutine %#x locks %s at %s while holding %s (locked at %s); the opposite order was recorded:",
			g, next.class, next.at, prev.class, prev.at)
		for i := 0; i+1 < len(back); i++ {
			o := w.orders[back[i]][back[i+1]]
			fmt.Fprintf(&b, "\n\t%s locked at %s while holding %s, locked at %s", back[i+1], o.to, back[i], o.from)
		}
		return b.String()
	}
	if w.orders[prev.class] == nil {
		w.orders[prev.class] = map[reflect.Type]order{}
	}
	w.orders[prev.class][next.class] = order{from: prev.at, to: next.at}
	return ""
}

// path returns a chain of recorded orders leading from class from to class
// to, both included, or nil. The caller holds witness.mu.
func path(from, to reflect.Type) []reflect.Type {
	seen := map[reflect.Type]bool{}
	var walk func(c reflect.Type) []reflect.Type
	walk = func(c reflect.Type) []reflect.Type {
		if c == to {
			return []reflect.Type{c}
		}
		if seen[c] {
			return nil
		}
		seen[c] = true
		for n := range witness.orders[c] {
			if p := walk(n); p != nil {
				return append([]reflect.Type{c}, p...)
			}
		}
		return nil
	}
	return walk(from)
}

func release(lock unsafe.Pointer) {
	g := goroutine()
	w := &witness
	w.mu.Lock()
	defer w.mu.Unlock()
	if drop(g, lock) {
		return
	}
	// sync.Mutex may be unlocked by another goroutine than the one that
	// locked it.
	for other := range w.held {
		if drop(other, lock) {
			return
		}
	}
}

// drop removes lock from goroutine g's held list, keeping the list's
// array, so a steady lock and unlock loop does not allocate. The caller
// holds witness.mu.
func drop(g uintptr, lock unsafe.Pointer) bool {
	hs := witness.held[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].lock == lock {
			witness.held[g] = append(hs[:i], hs[i+1:]...)
			return true
		}
	}
	return false
}
