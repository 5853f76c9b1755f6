// Package helper provides cross-package callees whose summaries the
// interprocedural fixture tests consume: one that always blocks and one
// that never does. Its notify without a lock is condguard's finding at the
// notify itself, whatever the callers hold.
package helper

import "sync"

// Next always blocks: its only path receives from c. Callers that hold a
// mutex across the call block under it.
func Next(c chan int) int {
	return <-c
}

// TryNext never blocks: the select has a default clause.
func TryNext(c chan int) (int, bool) {
	select {
	case v := <-c:
		return v, true
	default:
		return 0, false
	}
}

// Notify signals without locking. The lock belongs next to the notify,
// so the finding is here even though ok.guardedNotify holds a mutex
// across the call.
func Notify(c *sync.Cond) {
	c.Signal() // want "sync\\.Cond\\.Signal without holding a mutex"
}
