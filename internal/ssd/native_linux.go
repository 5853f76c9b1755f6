//go:build linux

// Native Linux read backend (DESIGN.md §14): io_uring submission/completion
// rings when the kernel offers them, vectored preadv otherwise, and
// O_DIRECT when the store layout permits. Everything here is raw syscall —
// the repository carries no dependencies, so the io_uring ABI (setup/enter
// plus the mmap'd SQ/CQ rings) is spelled out below rather than imported.
//
// The fallback ladder, decided once at open time and reported through
// BackendInfo:
//
//	O_DIRECT open  → buffered open        (unaligned layout, or the
//	                                       filesystem rejects the flag)
//	io_uring ring  → preadv worker pool   (ENOSYS / EPERM / EMFILE…)
//	native backend → portable FileDevice  (non-Linux builds; native_other.go)
//
// Each demotion keeps the PageDevice/AsyncDevice contract intact; only the
// mechanism under it changes.
package ssd

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const nativeAvailable = true

// io_uring syscall numbers. The io_uring calls entered the kernel after the
// syscall package froze, so they are spelled out; the numbers are uniform
// across Linux architectures (asm-generic allocation).
const (
	sysIOUringSetup = 425
	sysIOUringEnter = 426
)

// io_uring ABI constants (linux/io_uring.h).
const (
	ioringOffSQRing = 0x0
	ioringOffCQRing = 0x8000000
	ioringOffSQEs   = 0x10000000

	ioringEnterGetevents = 1 << 0
	ioringFeatSingleMmap = 1 << 0

	// IORING_OP_READV is supported from the first io_uring kernel (5.1),
	// unlike IORING_OP_READ (5.6), so the ring uses readv with a pinned
	// one-entry iovec per slot.
	ioringOpNop   = 0
	ioringOpReadv = 1
)

// ringEntries is the SQ depth requested at setup. It bounds in-flight reads
// on the ring engine; the CQ is sized 2× by the kernel, so with at most
// ringEntries outstanding the completion queue cannot overflow.
const ringEntries = 64

// sqRingOffsets / cqRingOffsets mirror struct io_sqring_offsets and
// io_cqring_offsets: byte offsets of the ring's control words within the
// mmap'd regions.
type sqRingOffsets struct {
	head, tail, ringMask, ringEntries uint32
	flags, dropped, array             uint32
	resv1                             uint32
	userAddr                          uint64
}

type cqRingOffsets struct {
	head, tail, ringMask, ringEntries uint32
	overflow, cqes                    uint32
	flags, resv1                      uint32
	userAddr                          uint64
}

// ioUringParams mirrors struct io_uring_params (120 bytes).
type ioUringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFD         uint32
	resv         [3]uint32
	sqOff        sqRingOffsets
	cqOff        cqRingOffsets
}

// ioUringSQE mirrors struct io_uring_sqe (64 bytes). Only the fields the
// readv/nop submissions touch are named; the union tail is opaque padding.
type ioUringSQE struct {
	opcode   uint8
	flags    uint8
	ioprio   uint16
	fd       int32
	off      uint64
	addr     uint64
	len      uint32
	rwFlags  uint32
	userData uint64
	pad      [24]byte
}

// ioUringCQE mirrors struct io_uring_cqe (16 bytes).
type ioUringCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

// ringSetup is the io_uring_setup entry point, a variable so tests can
// force the ENOSYS/EPERM demotion to the preadv path.
var ringSetup = func(entries uint32, p *ioUringParams) (int, error) {
	fd, _, errno := syscall.Syscall(sysIOUringSetup, uintptr(entries), uintptr(unsafe.Pointer(p)), 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

func ioUringEnter(fd int, toSubmit, minComplete, flags uint32) (int, error) {
	n, _, errno := syscall.Syscall6(sysIOUringEnter,
		uintptr(fd), uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
	if errno != 0 {
		return int(n), errno
	}
	return int(n), nil
}

// uring is one mmap'd submission/completion ring pair. The SQ side is
// touched only by the AsyncDevice submitter goroutine and the CQ side only
// by its reaper, so no locking beyond the ABI's atomics is needed.
type uring struct {
	fd int

	sqRing []byte // SQ control region (may also carry the CQ: single-mmap)
	cqRing []byte // CQ control region; aliases sqRing on single-mmap kernels
	sqeMem []byte // SQE array region

	sqHead  *uint32
	sqTail  *uint32
	sqMask  uint32
	sqArray []uint32
	sqes    []ioUringSQE

	cqHead *uint32
	cqTail *uint32
	cqMask uint32
	cqes   []ioUringCQE

	entries   uint32 // SQ depth
	localTail uint32 // submitter's private copy of *sqTail
	staged    uint32 // SQEs published but not yet pushed via enter
}

func newURing(entries uint32) (*uring, error) {
	var p ioUringParams
	fd, err := ringSetup(entries, &p)
	if err != nil {
		return nil, err
	}
	r := &uring{fd: fd, entries: p.sqEntries}
	fail := func(err error) (*uring, error) {
		r.close()
		return nil, err
	}
	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(ioUringCQE{}))
	single := p.features&ioringFeatSingleMmap != 0
	if single && cqSize > sqSize {
		sqSize = cqSize
	}
	r.sqRing, err = syscall.Mmap(fd, ioringOffSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(fmt.Errorf("ssd: mmap sq ring: %w", err))
	}
	if single {
		r.cqRing = r.sqRing
	} else {
		r.cqRing, err = syscall.Mmap(fd, ioringOffCQRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			return fail(fmt.Errorf("ssd: mmap cq ring: %w", err))
		}
	}
	r.sqeMem, err = syscall.Mmap(fd, ioringOffSQEs, int(p.sqEntries)*int(unsafe.Sizeof(ioUringSQE{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(fmt.Errorf("ssd: mmap sqes: %w", err))
	}
	at32 := func(region []byte, off uint32) *uint32 {
		return (*uint32)(unsafe.Pointer(&region[off]))
	}
	r.sqHead = at32(r.sqRing, p.sqOff.head)
	r.sqTail = at32(r.sqRing, p.sqOff.tail)
	r.sqMask = *at32(r.sqRing, p.sqOff.ringMask)
	r.sqArray = unsafe.Slice(at32(r.sqRing, p.sqOff.array), p.sqEntries)
	r.sqes = unsafe.Slice((*ioUringSQE)(unsafe.Pointer(&r.sqeMem[0])), p.sqEntries)
	r.cqHead = at32(r.cqRing, p.cqOff.head)
	r.cqTail = at32(r.cqRing, p.cqOff.tail)
	r.cqMask = *at32(r.cqRing, p.cqOff.ringMask)
	r.cqes = unsafe.Slice((*ioUringCQE)(unsafe.Pointer(&r.cqRing[p.cqOff.cqes])), p.cqEntries)
	r.localTail = atomic.LoadUint32(r.sqTail)
	return r, nil
}

// stage publishes one SQE without entering the kernel. It must only be
// called from the submitter goroutine, and only when the SQ has room.
func (r *uring) stage(sqe ioUringSQE) {
	idx := r.localTail & r.sqMask
	r.sqes[idx] = sqe
	r.sqArray[idx] = idx
	r.localTail++
	atomic.StoreUint32(r.sqTail, r.localTail)
	r.staged++
}

// sqFull reports whether another SQE would overrun the submission queue.
func (r *uring) sqFull() bool {
	return r.localTail-atomic.LoadUint32(r.sqHead) >= r.entries
}

func (r *uring) close() {
	if r.sqeMem != nil {
		syscall.Munmap(r.sqeMem)
	}
	if r.cqRing != nil && &r.cqRing[0] != &r.sqRing[0] {
		syscall.Munmap(r.cqRing)
	}
	if r.sqRing != nil {
		syscall.Munmap(r.sqRing)
	}
	syscall.Close(r.fd)
}

// nativeDevice is the Linux PageDevice over a raw fd. The synchronous
// methods use preadv; the ring methods below are driven by AsyncDevice's
// submitter/reaper pair when a ring is present.
type nativeDevice struct {
	fd       int
	offset   int64
	pageSize int
	numPages uint32
	info     BackendInfo

	ring *uring
	iov  []syscall.Iovec // one pinned iovec per ring slot, indexed by tag

	closed atomic.Bool
}

// openNative opens path's page region through the fallback ladder
// documented at the top of the file.
func openNative(path string, offset int64, pageSize int) (PageDevice, error) {
	if pageSize <= 0 {
		panic("ssd: page size must be positive")
	}
	info := BackendInfo{Backend: BackendNative, Align: DirectAlign}
	direct := offset%DirectAlign == 0 && pageSize%DirectAlign == 0
	if !direct {
		info.DirectReason = fmt.Sprintf("offset %d or page size %d not %d-byte aligned", offset, pageSize, DirectAlign)
	}
	var fd int
	var err error
	if direct {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_DIRECT|syscall.O_CLOEXEC, 0)
		if err != nil {
			// tmpfs and some network filesystems reject the flag outright.
			direct = false
			info.DirectReason = fmt.Sprintf("O_DIRECT open: %v", err)
		}
	}
	if !direct {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			return nil, fmt.Errorf("ssd: open %s: %w", path, err)
		}
	}
	info.Direct = direct
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("ssd: stat %s: %w", path, err)
	}
	n := (st.Size - offset) / int64(pageSize)
	if n < 0 {
		n = 0
	}
	if n > math.MaxUint32 {
		syscall.Close(fd)
		return nil, fmt.Errorf("%w: %s holds %d pages of %d bytes", ErrTooManyPages, path, n, pageSize)
	}
	d := &nativeDevice{fd: fd, offset: offset, pageSize: pageSize, numPages: uint32(n), info: info}
	ring, rerr := newURing(ringEntries)
	if rerr != nil {
		// Old kernel (ENOSYS), seccomp/rlimit policy (EPERM, EMFILE)… the
		// preadv worker-pool path below serves every read instead.
		d.info.RingReason = fmt.Sprintf("io_uring unavailable: %v", rerr)
	} else {
		d.ring = ring
		d.iov = make([]syscall.Iovec, ring.entries)
		d.info.Ring = true
		d.info.RingDepth = int(ring.entries)
	}
	return d, nil
}

// BackendInfo implements InfoProvider.
func (d *nativeDevice) BackendInfo() BackendInfo { return d.info }

// PageSize implements PageDevice.
func (d *nativeDevice) PageSize() int { return d.pageSize }

// NumPages implements PageDevice.
func (d *nativeDevice) NumPages() uint32 { return d.numPages }

// Close implements PageDevice.
func (d *nativeDevice) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	if d.ring != nil {
		d.ring.close()
	}
	return syscall.Close(d.fd)
}

// checkRange fails a read of a closed device, or of pages it does not hold.
func (d *nativeDevice) checkRange(first uint32, count int) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if count <= 0 || int64(first)+int64(count) > int64(d.numPages) {
		return fmt.Errorf("%w: pages [%d, %d) of %d", ErrOutOfRange, first, int64(first)+int64(count), d.numPages)
	}
	return nil
}

// alignedBuf returns an n-byte slice whose base address satisfies the
// O_DIRECT alignment, for the synchronous paths that own their buffer.
func alignedBuf(n int) []byte {
	raw := make([]byte, n+DirectAlign)
	off := int(-uintptr(unsafe.Pointer(&raw[0])) & uintptr(DirectAlign-1))
	return raw[off : off+n : off+n]
}

// ReadPages implements PageDevice, into an aligned buffer under O_DIRECT.
func (d *nativeDevice) ReadPages(first uint32, count int) ([]byte, error) {
	if err := d.checkRange(first, count); err != nil {
		return nil, err
	}
	buf := alignedBuf(count * d.pageSize)
	if err := d.ReadPagesInto(buf, first, count); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadPagesInto implements PageDevice. Under O_DIRECT an unaligned caller
// buffer is served through an aligned bounce buffer plus a copy; the async
// layer always passes arena-aligned buffers, so the bounce is reserved for
// direct synchronous callers.
func (d *nativeDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	if err := d.checkRange(first, count); err != nil {
		return err
	}
	want := count * d.pageSize
	if len(buf) < want {
		return fmt.Errorf("ssd: read buffer of %d bytes, want %d", len(buf), want)
	}
	dst := buf[:want]
	bounce := d.info.Direct && uintptr(unsafe.Pointer(&dst[0]))%DirectAlign != 0
	if bounce {
		dst = alignedBuf(want)
	}
	if err := d.preadFull(dst, d.offset+int64(first)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("ssd: read pages [%d,+%d): %w", first, count, err)
	}
	if bounce {
		copy(buf, dst)
	}
	return nil
}

// preadFull reads len(buf) bytes at off, retrying short reads and EINTR.
// It uses preadv through Syscall6 — positional, thread-safe, and the same
// primitive the ring path's SQEs encode — rather than an os.File method,
// keeping the whole backend on one code path.
func (d *nativeDevice) preadFull(buf []byte, off int64) error {
	for len(buf) > 0 {
		iov := syscall.Iovec{Base: &buf[0], Len: uint64(len(buf))}
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV,
			uintptr(d.fd), uintptr(unsafe.Pointer(&iov)), 1,
			uintptr(uint32(off)), uintptr(uint64(off)>>32), 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return errno
		}
		if n == 0 {
			return fmt.Errorf("unexpected EOF at offset %d", off)
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// --- ring engine hooks, driven by AsyncDevice (async.go) ---------------

// errRingFull reports a full submission queue; the submitter flushes the
// staged batch and retries.
var errRingFull = errors.New("ssd: submission queue full")

// RingEnabled reports whether the completion ring came up at open time.
func (d *nativeDevice) RingEnabled() bool { return d.ring != nil }

// RingSlots returns the number of concurrently usable submission slots.
func (d *nativeDevice) RingSlots() int { return int(d.ring.entries) }

// PrepareRead stages (without submitting) one vectored read of count pages
// from first into buf, tagged tag. tag must be a free slot index below
// RingSlots: the slot's iovec stays pinned until the CQE for tag arrives.
// Submitter-goroutine only.
func (d *nativeDevice) PrepareRead(tag uint64, buf []byte, first uint32, count int) error {
	if err := d.checkRange(first, count); err != nil {
		return err
	}
	want := count * d.pageSize
	if len(buf) < want {
		return fmt.Errorf("ssd: read buffer of %d bytes, want %d", len(buf), want)
	}
	if d.ring.sqFull() {
		return errRingFull
	}
	d.iov[tag] = syscall.Iovec{Base: &buf[0], Len: uint64(want)}
	d.ring.stage(ioUringSQE{
		opcode:   ioringOpReadv,
		fd:       int32(d.fd),
		off:      uint64(d.offset + int64(first)*int64(d.pageSize)),
		addr:     uint64(uintptr(unsafe.Pointer(&d.iov[tag]))),
		len:      1,
		userData: tag,
	})
	return nil
}

// SubmitNop stages and submits a no-op completion carrying tag, used to
// wake the reaper at shutdown.
func (d *nativeDevice) SubmitNop(tag uint64) error {
	if d.ring.sqFull() {
		if _, err := d.Submit(); err != nil {
			return err
		}
	}
	d.ring.stage(ioUringSQE{opcode: ioringOpNop, fd: -1, userData: tag})
	_, err := d.Submit()
	return err
}

// Submit pushes every staged SQE to the kernel in one io_uring_enter call,
// returning how many were consumed. Submitter-goroutine only.
func (d *nativeDevice) Submit() (int, error) {
	r := d.ring
	total := 0
	for r.staged > 0 {
		n, err := ioUringEnter(r.fd, r.staged, 0, 0)
		if err == syscall.EINTR || err == syscall.EAGAIN {
			continue
		}
		if err != nil {
			return total, fmt.Errorf("ssd: io_uring_enter: %w", err)
		}
		r.staged -= uint32(n)
		total += n
	}
	return total, nil
}

// WaitCQE blocks for one completion. ok is false when the ring itself
// failed (the device is closing out from under the reaper); otherwise tag
// names the submission and n/err carry its result — a negative CQE res
// arrives here already converted to the corresponding errno.
// Reaper-goroutine only.
func (d *nativeDevice) WaitCQE() (tag uint64, n int, err error, ok bool) {
	r := d.ring
	for {
		head := atomic.LoadUint32(r.cqHead)
		if head != atomic.LoadUint32(r.cqTail) {
			cqe := r.cqes[head&r.cqMask]
			atomic.StoreUint32(r.cqHead, head+1)
			if cqe.res < 0 {
				return cqe.userData, 0, syscall.Errno(-cqe.res), true
			}
			return cqe.userData, int(cqe.res), nil, true
		}
		if _, eerr := ioUringEnter(r.fd, 0, 1, ioringEnterGetevents); eerr != nil {
			if eerr == syscall.EINTR {
				continue
			}
			return 0, 0, fmt.Errorf("ssd: io_uring_enter(GETEVENTS): %w", eerr), false
		}
	}
}
