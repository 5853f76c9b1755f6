package ssd

import (
	"errors"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/metrics"
)

// TestAsyncReadScatter checks that a vectored read is one device submission
// whose segments arrive in order, each a sub-slice of the one read buffer
// with the right pages.
func TestAsyncReadScatter(t *testing.T) {
	base := &countingDevice{PageDevice: newMemDevice(64, 16)}
	mx := metrics.NewCollector()
	d := NewAsyncDevice(base, AsyncOptions{Events: mx})
	defer d.Close()

	spans := []int{1, 2, 3}
	type seg struct {
		idx  int
		data []byte
	}
	var mu sync.Mutex
	var got []seg
	d.AsyncReadScatter(4, spans, func(i int, data []byte, err error) {
		if err != nil {
			t.Errorf("seg %d: %v", i, err)
			return
		}
		mu.Lock()
		got = append(got, seg{idx: i, data: data})
		mu.Unlock()
	})
	d.Drain()

	if len(got) != len(spans) {
		t.Fatalf("callbacks = %d, want %d", len(got), len(spans))
	}
	first := uint32(4)
	for i, s := range got {
		if s.idx != i {
			t.Fatalf("segment order: got %d at position %d", s.idx, i)
		}
		if len(s.data) != spans[i]*64 {
			t.Fatalf("seg %d: %d bytes, want %d", i, len(s.data), spans[i]*64)
		}
		for p := 0; p < spans[i]; p++ {
			if s.data[p*64] != byte(first)+byte(p) {
				t.Fatalf("seg %d page %d: byte %d, want %d", i, p, s.data[p*64], byte(first)+byte(p))
			}
		}
		first += uint32(spans[i])
	}
	if n := base.reads.Load(); n != 1 {
		t.Fatalf("device reads = %d, want 1 (one read for the whole group)", n)
	}
	if mx.PagesRead() != 6 {
		t.Fatalf("pages read = %d, want 6", mx.PagesRead())
	}
}

// TestAsyncReadScatterFailure checks the error fan-out contract: a failed
// coalesced read must fail every constituent segment exactly once.
func TestAsyncReadScatterFailure(t *testing.T) {
	base := newMemDevice(64, 16)
	faulty := &FaultyDevice{PageDevice: base, FailEveryN: 1}
	d := NewAsyncDevice(faulty, AsyncOptions{})
	defer d.Close()

	spans := []int{2, 1, 4, 1}
	calls := make([]int, len(spans))
	var mu sync.Mutex
	d.AsyncReadScatter(0, spans, func(i int, data []byte, err error) {
		mu.Lock()
		defer mu.Unlock()
		calls[i]++
		if !errors.Is(err, ErrInjected) {
			t.Errorf("seg %d: err = %v, want ErrInjected", i, err)
		}
		if data != nil {
			t.Errorf("seg %d: non-nil data on failure", i)
		}
	})
	d.Drain()
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("seg %d failed %d times, want exactly once", i, n)
		}
	}
	if faulty.Reads() != 1 {
		t.Fatalf("device reads = %d, want 1", faulty.Reads())
	}
}
