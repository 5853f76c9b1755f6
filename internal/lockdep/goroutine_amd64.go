//go:build optpoison

package lockdep

// goroutine identifies the calling goroutine by the address of its runtime
// descriptor, which the runtime keeps in thread-local storage: a few
// nanoseconds, where reading the id from a stack trace costs microseconds
// on every Lock. A descriptor is reused once its goroutine exits; by then
// the goroutine holds no lock, so its held list is empty.
func goroutine() uintptr
