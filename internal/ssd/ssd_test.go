package ssd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optlab/opt/internal/metrics"
)

func TestMemDeviceRead(t *testing.T) {
	d := newMemDevice(64, 4)
	if d.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4", d.NumPages())
	}
	got, err := d.ReadPages(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 128 || got[0] != 2 || got[64] != 3 {
		t.Fatalf("ReadPages content wrong: len=%d got[0]=%d got[64]=%d", len(got), got[0], got[64])
	}
}

func TestMemDeviceOutOfRange(t *testing.T) {
	d := newMemDevice(64, 2)
	if _, err := d.ReadPages(1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.ReadPages(0, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("count=0: err = %v, want ErrOutOfRange", err)
	}
}

func TestMemDeviceClosed(t *testing.T) {
	d := newMemDevice(64, 1)
	if err := d.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if _, err := d.ReadPages(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestFileDevice(t *testing.T) {
	const offset = 100 // header region
	d, err := OpenFileDevice(patternFile(t, offset, 32, 5), offset, 32)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", d.NumPages())
	}
	got, err := d.ReadPages(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{4}, 32)) {
		t.Fatalf("page 4 content = %v", got[:4])
	}
	if got, err = d.ReadPages(0, 2); err != nil || got[0] != 0 || got[32] != 1 {
		t.Fatalf("pages 0-1: %v, content %v", err, got)
	}
	if _, err := d.ReadPages(5, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := d.ReadPages(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after Close: err = %v, want ErrClosed", err)
	}
}

func TestFileDeviceConcurrentReads(t *testing.T) {
	d, err := OpenFileDevice(patternFile(t, 0, 128, 64), 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := uint32(0); p < 64; p++ {
				data, err := d.ReadPages(p, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if data[0] != byte(p) {
					t.Errorf("page %d content = %d", p, data[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestAsyncReadCallbacksRunSerially(t *testing.T) {
	mem := newMemDevice(64, 32)
	d := NewAsyncDevice(mem, AsyncOptions{QueueDepth: 4})
	defer d.Close()

	var inCallback atomic.Int32
	var maxConcurrent atomic.Int32
	var count atomic.Int32
	for p := uint32(0); p < 32; p++ {
		pid := p
		d.AsyncRead(pid, 1, func(data []byte, err error) {
			cur := inCallback.Add(1)
			if cur > maxConcurrent.Load() {
				maxConcurrent.Store(cur)
			}
			if err != nil {
				t.Error(err)
			}
			if data[0] != byte(pid) {
				t.Errorf("page %d delivered %d", pid, data[0])
			}
			time.Sleep(100 * time.Microsecond)
			count.Add(1)
			inCallback.Add(-1)
		})
	}
	d.Drain()
	if count.Load() != 32 {
		t.Fatalf("callbacks ran %d times, want 32", count.Load())
	}
	if maxConcurrent.Load() != 1 {
		t.Fatalf("callbacks overlapped: max concurrency %d", maxConcurrent.Load())
	}
}

// countingDevice counts the reads its PageDevice has served.
type countingDevice struct {
	PageDevice
	reads atomic.Int64
}

func (c *countingDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	err := c.PageDevice.ReadPagesInto(buf, first, count)
	c.reads.Add(1)
	return err
}

// TestMicroOverlap verifies the micro-level overlapping property: while a
// callback computes, the device keeps serving queued reads. The gate is
// the overlap itself, not wall time: at least one read completes while
// some callback is still sleeping, which a device that served reads only
// between callbacks never does.
func TestMicroOverlap(t *testing.T) {
	dev := &countingDevice{PageDevice: newMemDevice(64, 16)}
	lat := Latency{PerRead: 2 * time.Millisecond}
	d := NewAsyncDevice(dev, AsyncOptions{QueueDepth: 8, Latency: lat})
	defer d.Close()

	const cpuPerPage = 2 * time.Millisecond
	var overlapped atomic.Int64 // reads served while a callback slept
	for p := uint32(0); p < 16; p++ {
		d.AsyncRead(p, 1, func(data []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			before := dev.reads.Load()
			time.Sleep(cpuPerPage) // the external-triangulation CPU work
			overlapped.Add(dev.reads.Load() - before)
		})
	}
	d.Drain()
	if overlapped.Load() == 0 {
		t.Fatalf("no overlap: none of the %d reads completed while a callback computed", dev.reads.Load())
	}
}

func TestAsyncReadFromCallbackChaining(t *testing.T) {
	// Algorithm 9 chains: each completion submits the next request. This
	// must not deadlock even with QueueDepth 1.
	mem := newMemDevice(64, 50)
	d := NewAsyncDevice(mem, AsyncOptions{QueueDepth: 1})
	defer d.Close()

	var visited atomic.Int32
	var chain func(p uint32)
	chain = func(p uint32) {
		d.AsyncRead(p, 1, func(data []byte, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			visited.Add(1)
			if p+1 < 50 {
				chain(p + 1)
			}
		})
	}
	chain(0)
	d.Drain()
	if visited.Load() != 50 {
		t.Fatalf("chained callbacks visited %d, want 50", visited.Load())
	}
}

// TestSyncDeviceReads checks the synchronous path: content, one sync read
// and its pages on the collector, and the simulated latency charged to the
// caller.
// TestSyncDeviceReads pins the contract both synchronous read paths share:
// each read charges the latency model and counts one synchronous read, a
// successful one counts its pages, and a done context fails fast — no
// read, no charge, no count, and ReadPagesInto's buffer untouched.
func TestSyncDeviceReads(t *testing.T) {
	paths := map[string]func(d *SyncDevice, first uint32, count int) ([]byte, error){
		"ReadPages": (*SyncDevice).ReadPages,
		"ReadPagesInto": func(d *SyncDevice, first uint32, count int) ([]byte, error) {
			buf := make([]byte, 4*64)
			buf[0] = 0xEE
			err := d.ReadPagesInto(buf, first, count)
			if err != nil && buf[0] != 0xEE {
				return nil, fmt.Errorf("a failed read wrote the buffer: %w", err)
			}
			return buf[:count*64], err
		},
	}
	for name, read := range paths {
		t.Run(name, func(t *testing.T) {
			m := metrics.NewCollector()
			lat := Latency{PerRead: 2 * SleepQuantum}
			ctx, cancel := context.WithCancel(context.Background())
			d := NewSyncDevice(newMemDevice(64, 4), AsyncOptions{Latency: lat, Metrics: m, Context: ctx})

			start := time.Now()
			got, err := read(d, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < lat.PerRead-SleepQuantum {
				t.Fatalf("a %v read returned after %v", lat.PerRead, elapsed)
			}
			if got[0] != 2 || got[64] != 3 {
				t.Fatal("read content wrong")
			}
			if m.PagesRead() != 2 {
				t.Fatalf("pages read = %d, want 2", m.PagesRead())
			}

			if _, err := read(d, 3, 2); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("read past the end: err = %v, want ErrOutOfRange", err)
			}
			if m.PagesRead() != 2 {
				t.Fatalf("a failed read counted its pages: %d read, want 2", m.PagesRead())
			}

			cancel()
			start = time.Now()
			if _, err := read(d, 0, 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("read on a done context: err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed >= lat.PerRead {
				t.Fatalf("read on a done context took %v, the latency model charges %v", elapsed, lat.PerRead)
			}
			if m.PagesRead() != 2 {
				t.Fatalf("a read on a done context was counted: %d pages read, want 2", m.PagesRead())
			}
		})
	}
}

// TestSyncDeviceStartsNoGoroutines pins what sets the synchronous baselines'
// device apart from AsyncDevice: building one, reading through it and
// closing what it reads leaves the goroutine count where it was. The
// AsyncDevice over the same file shows the count does move when a device
// starts goroutines, and that its Close joins every one of them.
//
// The test runs on one P, so no goroutine runs alongside it. One that
// signals Close runs on to its return before the test is scheduled again,
// so the count after Close is exact. One that Close does not wait for is
// still queued behind the dispatcher when Close returns, so a lost join is
// a count off by that goroutine. The race detector shuffles the run queue,
// and the unjoined goroutine then gets to run first in most rounds, so the
// async device is opened and closed asyncRounds times.
func TestSyncDeviceStartsNoGoroutines(t *testing.T) {
	const asyncRounds = 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := settledGoroutines()
	fd, err := OpenFileDevice(patternFile(t, 0, 64, 8), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	d := NewSyncDevice(fd, AsyncOptions{Latency: Latency{PerRead: SleepQuantum}})
	for p := uint32(0); p < 8; p += 2 {
		if _, err := d.ReadPages(p, 2); err != nil {
			t.Fatal(err)
		}
	}
	if during := runtime.NumGoroutine(); during != before {
		t.Fatalf("goroutines %d with a sync device open, %d before", during, before)
	}
	for round := 0; round < asyncRounds; round++ {
		// Start each round on a fresh time slice. The scheduler preempts
		// a goroutine whose P has not switched time slices for 10 ms, and
		// a goroutine woken from a sleep inherits its slice, so without
		// this the round after a sleep can be preempted at once: a device
		// goroutine preempted just after signalling Close would still
		// count when Close returns.
		runtime.Gosched()
		ad := NewAsyncDevice(fd, AsyncOptions{QueueDepth: 2})
		if during := runtime.NumGoroutine(); during <= before {
			t.Fatalf("goroutines %d with an async device open, %d before: the count cannot tell", during, before)
		}
		ad.Close()
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("round %d: goroutines %d after closing, %d before", round, after, before)
		}
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// a few milliseconds. A goroutine the previous test has already joined
// still counts until it has finished returning, so a count taken at once
// can be one high.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline, same := time.Now().Add(time.Second), 0; same < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestAsyncMetricsCounts: every read reaches the device once, and its
// pages reach each collector on the device's one sink once, whether it is
// handed over as Metrics or inside Events; with neither, nothing is counted
// and nothing fails.
func TestAsyncMetricsCounts(t *testing.T) {
	for _, tc := range []struct {
		name            string
		metrics, events bool
	}{{"Metrics", true, false}, {"Events", false, true}, {"both", true, true}, {"neither", false, false}} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &countingDevice{PageDevice: newMemDevice(64, 10)}
			opts := AsyncOptions{QueueDepth: 4}
			var counted []*metrics.Collector
			if tc.metrics {
				opts.Metrics = metrics.NewCollector()
				counted = append(counted, opts.Metrics)
			}
			if tc.events {
				m := metrics.NewCollector()
				opts.Events = m
				counted = append(counted, m)
			}
			d := NewAsyncDevice(mem, opts)
			defer d.Close()
			for p := uint32(0); p < 10; p += 2 {
				d.AsyncRead(p, 2, func(_ []byte, err error) {
					if err != nil {
						t.Error(err)
					}
				})
			}
			d.Drain()
			if got := mem.reads.Load(); got != 5 {
				t.Fatalf("the device served %d reads, want 5", got)
			}
			for _, m := range counted {
				if got := m.PagesRead(); got != 10 {
					t.Fatalf("PagesRead = %d, want 10", got)
				}
			}
		})
	}
}

// ringFake is a ringDevice over a memDevice whose Submit completes every
// staged read before it returns: the kernel's fastest case, in which a
// callback, and a Drain, can finish before the enter call is back. Submit
// also records whether the reads it hands over were already counted in a
// batch.
type ringFake struct {
	*memDevice
	mx        *metrics.Collector
	staged    []ringFakeSQE
	cqes      chan ringFakeSQE
	submitted int64        // reads handed over so far; submitter only
	uncounted atomic.Int64 // Submit calls that found their reads uncounted
}

type ringFakeSQE struct {
	tag   uint64
	buf   []byte
	first uint32
	count int
}

func newRingFake(mem *memDevice, mx *metrics.Collector, slots int) *ringFake {
	return &ringFake{memDevice: mem, mx: mx, cqes: make(chan ringFakeSQE, slots+1)}
}

func (r *ringFake) RingEnabled() bool { return true }
func (r *ringFake) RingSlots() int    { return cap(r.cqes) - 1 }

func (r *ringFake) PrepareRead(tag uint64, buf []byte, first uint32, count int) error {
	r.staged = append(r.staged, ringFakeSQE{tag, buf, first, count})
	return nil
}

func (r *ringFake) Submit() error {
	r.submitted += int64(len(r.staged))
	if r.mx.Snapshot().BatchedReads < r.submitted {
		r.uncounted.Add(1)
	}
	for _, s := range r.staged {
		r.cqes <- s
	}
	r.staged = r.staged[:0]
	return nil
}

func (r *ringFake) SubmitNop(tag uint64) error {
	r.cqes <- ringFakeSQE{tag: tag}
	return nil
}

func (r *ringFake) WaitCQE() (uint64, int, error, bool) {
	s := <-r.cqes
	if s.tag == nopTag {
		return s.tag, 0, nil, true
	}
	err := r.ReadPagesInto(s.buf, s.first, s.count)
	return s.tag, len(s.buf), err, true
}

// TestRingBatchCountedBeforeSubmit pins the ring engine's batch accounting
// against a device that completes reads inside the enter call: every batch
// is counted before its reads reach the device, so the counters are exact
// as soon as Drain returns.
func TestRingBatchCountedBeforeSubmit(t *testing.T) {
	mx := metrics.NewCollector()
	ring := newRingFake(newMemDevice(64, 32), mx, 4)
	d := NewAsyncDevice(ring, AsyncOptions{Metrics: mx})
	defer d.Close()
	if d.ring == nil {
		t.Fatal("ring engine not engaged")
	}
	var bad atomic.Int64
	for round := 0; round < 4; round++ {
		for p := uint32(0); p < 32; p += 2 {
			first := p
			d.AsyncRead(first, 2, func(data []byte, err error) {
				if err != nil || data[0] != byte(first) || data[64] != byte(first+1) {
					bad.Add(1)
				}
			})
		}
		d.Drain()
		if got, want := mx.Snapshot().BatchedReads, int64((round+1)*16); got != want {
			t.Fatalf("round %d: %d reads counted in batches after Drain, want %d", round, got, want)
		}
	}
	if bad.Load() != 0 {
		t.Fatalf("%d reads failed or returned the wrong pages", bad.Load())
	}
	if n := ring.uncounted.Load(); n != 0 {
		t.Fatalf("%d submits handed over reads no batch had counted", n)
	}
}

func TestAsyncErrorDelivery(t *testing.T) {
	mem := newMemDevice(64, 4)
	d := NewAsyncDevice(mem, AsyncOptions{QueueDepth: 2})
	defer d.Close()
	var gotErr atomic.Value
	d.AsyncRead(10, 1, func(_ []byte, err error) {
		if err != nil {
			gotErr.Store(err)
		}
	})
	d.Drain()
	err, _ := gotErr.Load().(error)
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("callback err = %v, want ErrOutOfRange", err)
	}
}

func TestFaultyDevice(t *testing.T) {
	mem := newMemDevice(64, 8)
	fd := &FaultyDevice{PageDevice: mem, FailEveryN: 3}
	var fails int
	for i := 0; i < 9; i++ {
		if _, err := fd.ReadPages(0, 1); errors.Is(err, ErrInjected) {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("injected %d faults in 9 reads, want 3", fails)
	}
	if fd.Reads() != 9 {
		t.Fatalf("Reads = %d, want 9", fd.Reads())
	}

	fp := &FaultyDevice{PageDevice: mem, FailPage: 5, FailPageSet: true}
	if _, err := fp.ReadPages(4, 3); !errors.Is(err, ErrInjected) {
		t.Fatal("read covering page 5 should fail")
	}
	if _, err := fp.ReadPages(0, 3); err != nil {
		t.Fatalf("read not covering page 5 failed: %v", err)
	}
	if err := fp.Close(); err != nil {
		t.Fatalf("Close without FailClose = %v", err)
	}
	fc := &FaultyDevice{PageDevice: newMemDevice(64, 8), FailClose: true}
	if _, err := fc.ReadPages(0, 8); err != nil {
		t.Fatalf("FailClose must not fail reads: %v", err)
	}
	if err := fc.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close with FailClose = %v, want ErrInjected", err)
	}
}

func TestLatencyCost(t *testing.T) {
	l := Latency{PerRead: time.Millisecond, PerPage: 100 * time.Microsecond}
	if got := l.Cost(10); got != 2*time.Millisecond {
		t.Fatalf("Cost(10) = %v, want 2ms", got)
	}
	if got := (Latency{}).Cost(100); got != 0 {
		t.Fatalf("zero latency Cost = %v, want 0", got)
	}
}

func TestAsyncCloseIdempotent(t *testing.T) {
	d := NewAsyncDevice(newMemDevice(64, 1), AsyncOptions{})
	d.Close()
	d.Close()
}

// sparseFile creates a file of the given size without materialising its
// blocks, so the 2^32-page boundary is reachable with page size 1.
func sparseFile(t *testing.T, size int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sparse.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		t.Skipf("cannot create %d-byte sparse file: %v", size, err)
	}
	return path
}

// TestOpenFileDevicePageCountBoundary pins the fix for the uint32
// truncation bug: a file holding exactly MaxUint32 pages opens with the
// true count, and one page more is rejected with ErrTooManyPages instead
// of silently wrapping to a tiny device.
func TestOpenFileDevicePageCountBoundary(t *testing.T) {
	const maxPages = int64(1) << 32

	path := sparseFile(t, maxPages-1) // 2^32-1 one-byte pages: last valid size
	d, err := OpenFileDevice(path, 0, 1)
	if err != nil {
		t.Fatalf("open at boundary: %v", err)
	}
	if got := d.NumPages(); got != 1<<32-1 {
		t.Fatalf("NumPages = %d, want %d", got, int64(1)<<32-1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	path = sparseFile(t, maxPages) // 2^32 pages: one past the address space
	if _, err := OpenFileDevice(path, 0, 1); !errors.Is(err, ErrTooManyPages) {
		t.Fatalf("open past boundary: err = %v, want ErrTooManyPages", err)
	}
}

func TestReadPagesInto(t *testing.T) {
	fd, err := OpenFileDevice(patternFile(t, 0, 64, 8), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fd.Close() }()
	devices := map[string]PageDevice{"mem": newMemDevice(64, 8), "file": fd}

	for name, d := range devices {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 3*64)
			if err := d.ReadPagesInto(buf, 2, 3); err != nil {
				t.Fatal(err)
			}
			want, err := d.ReadPages(2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatal("ReadPagesInto content differs from ReadPages")
			}
			// Oversized buffers are allowed; only the prefix is written.
			big := make([]byte, 4*64)
			big[3*64] = 0xEE
			if err := d.ReadPagesInto(big, 2, 3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(big[:3*64], want) || big[3*64] != 0xEE {
				t.Fatal("oversized buffer mishandled")
			}
			if err := d.ReadPagesInto(make([]byte, 64), 2, 3); err == nil {
				t.Fatal("short buffer: want error")
			}
			if err := d.ReadPagesInto(buf, 7, 3); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("out of range: err = %v, want ErrOutOfRange", err)
			}
			if err := d.ReadPagesInto(buf, 0, 0); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("count=0: err = %v, want ErrOutOfRange", err)
			}
		})
	}
}

func TestFaultyDeviceReadPagesInto(t *testing.T) {
	fd := &FaultyDevice{PageDevice: newMemDevice(64, 8), FailAt: 2}
	buf := make([]byte, 64)
	if err := fd.ReadPagesInto(buf, 0, 1); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if err := fd.ReadPagesInto(buf, 1, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2: err = %v, want ErrInjected", err)
	}
	if err := fd.ReadPagesInto(buf, 2, 1); err != nil {
		t.Fatalf("read 3: %v", err)
	}
	if buf[0] != 2 {
		t.Fatalf("content after faults = %d, want 2", buf[0])
	}
	if fd.Reads() != 3 {
		t.Fatalf("Reads = %d, want 3", fd.Reads())
	}
}

// TestAsyncReadSteadyStateAllocs pins the path the I/O scheduler takes,
// AsyncReadOwned with the buffer handed back through Recycle: reads land in
// recycled arena buffers, so the submit→read→callback cycle stops
// allocating once warm.
func TestAsyncReadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	fd, err := OpenFileDevice(patternFile(t, 0, 512, 64), 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fd.Close() }()
	d := NewAsyncDevice(fd, AsyncOptions{QueueDepth: 2})
	defer d.Close()

	var bad atomic.Int64
	cb := func(data []byte, err error) {
		if err != nil || len(data) != 4*512 {
			bad.Add(1)
		}
		d.Recycle(data)
	}
	warm := func() {
		for p := uint32(0); p+4 <= 64; p += 4 {
			d.AsyncReadOwned(p, 4, cb)
		}
		d.Drain()
	}
	warm()
	avg := testing.AllocsPerRun(50, warm)
	if bad.Load() != 0 {
		t.Fatalf("%d callbacks saw errors or short data", bad.Load())
	}
	// 16 reads per run; allow a fraction of an alloc/run for incidental
	// runtime noise (goroutine stack growth, timer churn), but the per-read
	// make([]byte) of the old path (≥16/run) must be gone.
	if avg > 2 {
		t.Fatalf("steady-state allocs per 16-read run = %v, want ≤ 2", avg)
	}
}

// TestAsyncReadRecycles pins what makes AsyncRead a wrapper and not a second
// completion path: it hands every buffer back to the arena once cb returns,
// so warm rounds of reads take next to nothing new from it (a dropped
// Recycle would take one buffer per read).
func TestAsyncReadRecycles(t *testing.T) {
	d := NewAsyncDevice(newMemDevice(512, 64), AsyncOptions{QueueDepth: 2})
	defer d.Close()
	round := func() {
		for p := uint32(0); p+4 <= 64; p += 4 {
			d.AsyncRead(p, 4, func(data []byte, err error) {
				if err != nil || len(data) != 4*512 {
					t.Errorf("read at %d: %d bytes, %v", p, len(data), err)
				}
			})
		}
		d.Drain()
	}
	for i := 0; i < 5; i++ {
		round()
	}
	before, _ := readArena.Stats()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		round()
	}
	if after, _ := readArena.Stats(); after-before >= 16 {
		t.Fatalf("%d warm rounds of 16 reads took %d fresh arena buffers", rounds, after-before)
	}
}
