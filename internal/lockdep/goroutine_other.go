//go:build optpoison && !amd64

package lockdep

import "runtime"

// goroutine identifies the calling goroutine by the id in its stack header
// ("goroutine 12 [running]:"). It walks the whole stack, so it costs
// microseconds; amd64 reads the runtime's descriptor instead.
func goroutine() uintptr {
	var buf [32]byte
	b := buf[len("goroutine "):runtime.Stack(buf[:], false)]
	var id uintptr
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
