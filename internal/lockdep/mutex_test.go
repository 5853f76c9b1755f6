package lockdep

import (
	"sync"
	"testing"
	"unsafe"
)

// The witness's state lives outside the lock, so a Mutex is the size of
// the sync.Mutex it stands for in either build, and it is a sync.Locker
// for sync.NewCond.
func TestMutexIsASyncMutex(t *testing.T) {
	var m Mutex[struct{}]
	if got, want := unsafe.Sizeof(m), unsafe.Sizeof(sync.Mutex{}); got != want {
		t.Fatalf("Mutex is %d bytes, sync.Mutex %d", got, want)
	}
	var l sync.Locker = &m
	l.Lock()
	l.Unlock()
}

// A sync.Cond over a Mutex waits and wakes in either build: Wait unlocks
// and relocks through the Mutex, so under the witness a waiter does not
// keep the lock on its held list while it sleeps, and its relock is not a
// second acquisition of a lock it holds.
func TestMutexBacksACond(t *testing.T) {
	var m Mutex[struct{ cond int }]
	c := sync.NewCond(&m)
	ready, done := false, make(chan struct{})
	go func() {
		defer close(done)
		m.Lock()
		for !ready {
			c.Wait()
		}
		m.Unlock()
	}()
	for i := 0; i < 2; i++ {
		m.Lock()
		ready = i == 1
		c.Broadcast()
		m.Unlock()
	}
	<-done
	m.Lock() // the waiter's relock was released with its Unlock
	m.Unlock()
}
