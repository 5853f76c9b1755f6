package ssd

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/optlab/opt/internal/events"
)

// TestAsyncDeviceCancellation verifies that a done context drains the
// device: queued requests complete with the context's error (callbacks
// still run, so Drain and Close unblock), and the synchronous paths fail
// fast without touching the backing device.
func TestAsyncDeviceCancellation(t *testing.T) {
	mem := newMemDevice(64, 16)
	ctx, cancel := context.WithCancel(context.Background())
	d := NewAsyncDevice(mem, AsyncOptions{QueueDepth: 2, Context: ctx})
	cancel()

	var calls, cancelled atomic.Int32
	for p := uint32(0); p < 16; p++ {
		d.AsyncRead(p, 1, func(data []byte, err error) {
			calls.Add(1)
			if errors.Is(err, context.Canceled) && data == nil {
				cancelled.Add(1)
			}
		})
	}

	d.Drain() // must unblock even though no I/O happened
	if calls.Load() != 16 || cancelled.Load() != 16 {
		t.Fatalf("callbacks = %d, cancelled = %d, want 16/16", calls.Load(), cancelled.Load())
	}

	if _, err := d.ReadPages(0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("sync read err = %v, want context.Canceled", err)
	}
	d.Close() // must not deadlock
}

// TestAsyncDeviceCancelMidStream cancels while requests are in flight and
// checks that every callback still runs exactly once.
func TestAsyncDeviceCancelMidStream(t *testing.T) {
	mem := newMemDevice(64, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewAsyncDevice(mem, AsyncOptions{QueueDepth: 2, Context: ctx})
	defer d.Close()

	var calls atomic.Int32
	for p := uint32(0); p < 64; p++ {
		if p == 8 {
			cancel()
		}
		d.AsyncRead(p%16, 1, func(data []byte, err error) {
			calls.Add(1)
		})
	}
	d.Drain()
	if calls.Load() != 64 {
		t.Fatalf("callbacks ran %d times, want 64", calls.Load())
	}
}

// TestAsyncDeviceEvents checks that completed I/O is reported to the
// configured event sink on both the synchronous and asynchronous paths.
func TestAsyncDeviceEvents(t *testing.T) {
	mem := newMemDevice(64, 8)
	var pagesRead atomic.Int64
	sink := events.Func(func(e events.Event) {
		if e.Kind == events.PagesRead {
			pagesRead.Add(e.N)
		}
	})
	d := NewAsyncDevice(mem, AsyncOptions{QueueDepth: 2, Events: sink})
	defer d.Close()

	if _, err := d.ReadPages(0, 2); err != nil {
		t.Fatal(err)
	}
	d.AsyncRead(0, 3, func(data []byte, err error) {
		if err != nil {
			t.Error(err)
		}
	})
	d.Drain()
	if got := pagesRead.Load(); got != 5 {
		t.Errorf("PagesRead events totalled %d, want 5", got)
	}
}
