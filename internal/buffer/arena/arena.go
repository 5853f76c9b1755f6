// Package arena provides aligned, recycled read buffers for the ssd layer.
//
// The native Linux backend reads with O_DIRECT, which requires the buffer
// address to be aligned (typically to 512 or 4096 bytes); Go's allocator
// gives no such guarantee, so the arena over-allocates once per buffer and
// slices to the alignment boundary. Released buffers are kept on
// power-of-two size-class free lists and handed back on the next Acquire,
// so the steady state of a read loop — acquire, read, decode, release —
// performs zero heap allocations. That preserves the 0 allocs/op contract
// the I/O scheduler pinned in PR 3.
//
// The package is a leaf below both ssd and buffer: of the repository it
// imports only lockdep, so ssd can use it without creating the
// ssd → buffer → storage → ssd cycle.
package arena

import (
	"unsafe"

	"github.com/optlab/opt/internal/lockdep"
)

// maxRetained bounds the bytes of idle buffers an arena keeps, over all
// its size classes; a buffer released beyond it is dropped for the GC. The
// ssd layer keeps one arena for the whole process, so the bound is what a
// daemon retains between runs, whatever its stores, read sizes and job
// count. A warm OPT run holds far less than the bound in flight, so its
// read loop still recycles every buffer.
const maxRetained = 1 << 20

// Arena recycles byte buffers whose backing arrays start on an alignment
// boundary. It is safe for concurrent use.
type Arena struct {
	align int

	mu       lockdep.Mutex[Arena]
	free     map[int][][]byte // size class → released full-capacity slices
	retained int              // bytes on the free lists

	allocs   int64 // fresh allocations (cache misses)
	recycles int64 // acquisitions served from a free list
}

// New returns an arena whose buffers are aligned to align bytes, which must
// be a positive power of two.
func New(align int) *Arena {
	if align <= 0 || align&(align-1) != 0 {
		panic("arena: alignment must be a positive power of two")
	}
	return &Arena{align: align, free: make(map[int][][]byte)}
}

// Align returns the arena's alignment in bytes.
func (a *Arena) Align() int { return a.align }

// classFor rounds n up to the arena's buffer size classes: the next power
// of two, floored at the alignment so every class is itself aligned.
func (a *Arena) classFor(n int) int {
	size := a.align
	for size < n {
		size <<= 1
	}
	return size
}

// Acquire returns an n-byte buffer whose first byte sits on an alignment
// boundary and whose capacity is the full size class, so Release can
// recover the class from cap alone. n must be positive.
func (a *Arena) Acquire(n int) []byte {
	if n <= 0 {
		panic("arena: Acquire of non-positive size")
	}
	size := a.classFor(n)
	a.mu.Lock()
	if l := a.free[size]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[size] = l[:len(l)-1]
		a.retained -= size
		a.recycles++
		a.mu.Unlock()
		return b[:n]
	}
	a.allocs++
	a.mu.Unlock()
	raw := make([]byte, size+a.align)
	off := int(-uintptr(unsafe.Pointer(&raw[0])) & uintptr(a.align-1))
	return raw[off : off+n : off+size]
}

// Release returns a buffer obtained from Acquire to the arena. Slices the
// arena does not recognise — wrong capacity class or unaligned start — are
// dropped silently, so callers may pass through buffers of foreign origin.
// The caller must not retain any view of b after Release.
func (a *Arena) Release(b []byte) {
	size := cap(b)
	if size < a.align || size&(size-1) != 0 {
		return
	}
	full := b[:size]
	if uintptr(unsafe.Pointer(&full[0]))&uintptr(a.align-1) != 0 {
		return
	}
	a.mu.Lock()
	if a.retained+size <= maxRetained {
		a.free[size] = append(a.free[size], full)
		a.retained += size
	}
	a.mu.Unlock()
}

// Stats reports fresh allocations and recycled acquisitions so far.
func (a *Arena) Stats() (allocs, recycles int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs, a.recycles
}
