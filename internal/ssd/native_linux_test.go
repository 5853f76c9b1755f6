//go:build linux

package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
)

// nativeFixture writes numPages pages of deterministic content at offset
// and opens the region through the native backend.
func nativeFixture(t *testing.T, offset int64, pageSize, numPages int) (*nativeDevice, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.bin")
	content := make([]byte, offset+int64(numPages*pageSize))
	rnd := rand.New(rand.NewSource(42))
	rnd.Read(content)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := openNative(path, offset, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	nd, ok := d.(*nativeDevice)
	if !ok {
		t.Fatalf("openNative returned %T", d)
	}
	t.Cleanup(func() { _ = nd.Close() })
	return nd, content[offset:]
}

func TestNativeMatchesReadAt(t *testing.T) {
	d, pages := nativeFixture(t, 100, 256, 64)
	if d.NumPages() != 64 || d.PageSize() != 256 {
		t.Fatalf("device shape %d×%d", d.NumPages(), d.PageSize())
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		first := uint32(rnd.Intn(60))
		count := 1 + rnd.Intn(64-int(first))
		got, err := d.ReadPages(first, count)
		if err != nil {
			t.Fatalf("ReadPages(%d, %d): %v", first, count, err)
		}
		want := pages[int(first)*256 : (int(first)+count)*256]
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadPages(%d, %d) content differs", first, count)
		}
		buf := make([]byte, count*256)
		if err := d.ReadPagesInto(buf, first, count); err != nil {
			t.Fatalf("ReadPagesInto(%d, %d): %v", first, count, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("ReadPagesInto(%d, %d) content differs", first, count)
		}
	}
	if _, err := d.ReadPages(63, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
}

// TestNativeRingThroughAsync drives the full ring engine: AsyncDevice over
// a native device with a live io_uring, concurrent scatter reads, event and
// metrics accounting, and clean shutdown.
func TestNativeRingThroughAsync(t *testing.T) {
	d, pages := nativeFixture(t, 0, 512, 128)
	if !d.RingEnabled() {
		t.Skipf("io_uring unavailable here: %s", d.info.RingReason)
	}
	mx := metrics.NewCollector()
	var ringDepthEvents, submittedBatches atomic.Int64
	sink := events.Func(func(e events.Event) {
		switch e.Kind {
		case events.RingDepth:
			ringDepthEvents.Add(1)
		case events.SubmittedBatch:
			submittedBatches.Add(1)
		}
	})
	ad := NewAsyncDevice(d, AsyncOptions{QueueDepth: 4, Metrics: mx, Events: sink})
	defer ad.Close()
	if ad.ring == nil {
		t.Fatal("ring engine not engaged")
	}
	if ringDepthEvents.Load() != 1 || mx.Snapshot().RingDepth != int64(d.RingSlots()) {
		t.Fatalf("ring depth reporting: %d events, metric %d, want 1 and %d",
			ringDepthEvents.Load(), mx.Snapshot().RingDepth, d.RingSlots())
	}

	var bad atomic.Int64
	for round := 0; round < 8; round++ {
		for p := uint32(0); p+4 <= 128; p += 4 {
			first := p
			ad.AsyncReadScatter(first, []int{1, 3}, func(seg int, data []byte, err error) {
				if err != nil {
					bad.Add(1)
					return
				}
				var want []byte
				if seg == 0 {
					want = pages[int(first)*512 : (int(first)+1)*512]
				} else {
					want = pages[(int(first)+1)*512 : (int(first)+4)*512]
				}
				if !bytes.Equal(data, want) {
					bad.Add(1)
				}
			})
		}
		ad.Drain()
	}
	if bad.Load() != 0 {
		t.Fatalf("%d segments failed or mismatched", bad.Load())
	}
	if got, want := mx.PagesRead(), int64(8*32*4); got != want {
		t.Fatalf("PagesRead = %d, want %d", got, want)
	}
	if mx.Snapshot().SubmittedBatches == 0 || mx.Snapshot().BatchedReads != int64(8*32) {
		t.Fatalf("batches = %d covering %d reads, want >0 covering %d",
			mx.Snapshot().SubmittedBatches, mx.Snapshot().BatchedReads, 8*32)
	}
	if submittedBatches.Load() != mx.Snapshot().SubmittedBatches {
		t.Fatalf("event/metric batch counts diverge: %d vs %d",
			submittedBatches.Load(), mx.Snapshot().SubmittedBatches)
	}
}

// TestNativeRingErrorDelivery pins error propagation through the CQE path:
// reads past the device map to ErrOutOfRange before submission, and the
// engine survives mixed success/failure bursts.
func TestNativeRingErrorDelivery(t *testing.T) {
	d, _ := nativeFixture(t, 0, 512, 16)
	if !d.RingEnabled() {
		t.Skipf("io_uring unavailable here: %s", d.info.RingReason)
	}
	ad := NewAsyncDevice(d, AsyncOptions{})
	defer ad.Close()
	var oks, fails atomic.Int64
	for i := 0; i < 32; i++ {
		first := uint32(i % 20)
		ad.AsyncRead(first, 4, func(data []byte, err error) {
			if first+4 <= 16 {
				if err != nil {
					t.Errorf("read at %d: %v", first, err)
				}
				oks.Add(1)
			} else {
				if !errors.Is(err, ErrOutOfRange) {
					t.Errorf("read at %d: err = %v, want ErrOutOfRange", first, err)
				}
				fails.Add(1)
			}
		})
	}
	ad.Drain()
	if oks.Load()+fails.Load() != 32 || fails.Load() == 0 {
		t.Fatalf("completions: %d ok, %d failed", oks.Load(), fails.Load())
	}
}

// TestRingSetupFallback forces io_uring_setup to fail the way locked-down
// kernels do and checks the open demotes to the preadv path, read results
// intact — the middle rung of the fallback ladder.
func TestRingSetupFallback(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.ENOSYS, syscall.EPERM} {
		t.Run(errno.Error(), func(t *testing.T) {
			orig := ringSetup
			ringSetup = func(entries uint32, p *ioUringParams) (int, error) { return -1, errno }
			defer func() { ringSetup = orig }()

			d, pages := nativeFixture(t, 0, 256, 32)
			if d.RingEnabled() {
				t.Fatal("ring came up despite forced setup failure")
			}
			info := d.BackendInfo()
			if info.Ring || info.RingReason == "" {
				t.Fatalf("info = %+v, want ring off with a reason", info)
			}
			ad := NewAsyncDevice(d, AsyncOptions{QueueDepth: 2})
			defer ad.Close()
			if ad.ring != nil {
				t.Fatal("async device engaged a dead ring")
			}
			var bad atomic.Int64
			for p := uint32(0); p < 32; p += 2 {
				first := p
				ad.AsyncRead(first, 2, func(data []byte, err error) {
					if err != nil || !bytes.Equal(data, pages[int(first)*256:(int(first)+2)*256]) {
						bad.Add(1)
					}
				})
			}
			ad.Drain()
			if bad.Load() != 0 {
				t.Fatalf("%d preadv-path reads failed", bad.Load())
			}
		})
	}
}

// TestDirectFallback covers the top rung of the ladder: an unaligned store
// offset must refuse O_DIRECT with a recorded reason, and AsyncDevice must
// surface that as a DirectFallback event and metric.
func TestDirectFallback(t *testing.T) {
	d, _ := nativeFixture(t, 100, 256, 8) // offset 100: unaligned
	info := d.BackendInfo()
	if info.Direct || info.DirectReason == "" {
		t.Fatalf("info = %+v, want direct off with a reason", info)
	}
	if info.Align != DirectAlign {
		t.Fatalf("Align = %d, want %d", info.Align, DirectAlign)
	}
	mx := metrics.NewCollector()
	var fallbacks atomic.Int64
	ad := NewAsyncDevice(d, AsyncOptions{
		Metrics: mx,
		Events: events.Func(func(e events.Event) {
			if e.Kind == events.DirectFallback {
				fallbacks.Add(1)
			}
		}),
	})
	ad.Close()
	if fallbacks.Load() != 1 || mx.Snapshot().DirectFallbacks != 1 {
		t.Fatalf("fallback reporting: %d events, metric %d, want 1 and 1",
			fallbacks.Load(), mx.Snapshot().DirectFallbacks)
	}
}

// TestDirectAlignedOpen checks the aligned layout at least attempts
// O_DIRECT; filesystems that reject the flag (tmpfs) must land on the
// buffered rung with the open error recorded, never fail the open.
func TestDirectAlignedOpen(t *testing.T) {
	d, pages := nativeFixture(t, 4096, 4096, 8)
	info := d.BackendInfo()
	if !info.Direct && info.DirectReason == "" {
		t.Fatalf("info = %+v: direct off without a reason", info)
	}
	got, err := d.ReadPages(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pages[3*4096:5*4096]) {
		t.Fatal("content differs under direct/buffered open")
	}
	// ReadPagesInto with a deliberately unaligned destination exercises the
	// bounce-buffer path when O_DIRECT is engaged.
	raw := make([]byte, 2*4096+1)
	buf := raw[1:]
	if err := d.ReadPagesInto(buf, 3, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pages[3*4096:5*4096]) {
		t.Fatal("unaligned ReadPagesInto content differs")
	}
	t.Logf("direct=%v reason=%q ring=%v", info.Direct, info.DirectReason, info.Ring)
}

// TestFaultyAroundNative wraps the fault injector around a native device:
// the wrapper hides the ring interface (interface embedding does not
// forward type identity), so the async layer must demote to the worker
// pool and still deliver the scheduled fault.
func TestFaultyAroundNative(t *testing.T) {
	d, pages := nativeFixture(t, 0, 256, 32)
	fd := &FaultyDevice{PageDevice: d, FailAt: 3}
	ad := NewAsyncDevice(fd, AsyncOptions{QueueDepth: 1})
	defer ad.Close()
	if ad.ring != nil {
		t.Fatal("ring engine engaged through the fault wrapper")
	}
	var injected, ok atomic.Int64
	for i := 0; i < 6; i++ {
		first := uint32(i * 4)
		ad.AsyncRead(first, 4, func(data []byte, err error) {
			switch {
			case errors.Is(err, ErrInjected):
				injected.Add(1)
			case err == nil && bytes.Equal(data, pages[int(first)*256:(int(first)+4)*256]):
				ok.Add(1)
			default:
				t.Errorf("read at %d: %v", first, err)
			}
		})
		ad.Drain() // serialise so FailAt lands deterministically
	}
	if injected.Load() != 1 || ok.Load() != 5 {
		t.Fatalf("injected=%d ok=%d, want 1 and 5", injected.Load(), ok.Load())
	}
}

// TestNativeTooManyPages mirrors the OpenFileDevice boundary fix on the
// native open path.
func TestNativeTooManyPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(1 << 32); err != nil {
		t.Skipf("cannot create sparse file: %v", err)
	}
	if _, err := openNative(path, 0, 1); !errors.Is(err, ErrTooManyPages) {
		t.Fatalf("err = %v, want ErrTooManyPages", err)
	}
}
