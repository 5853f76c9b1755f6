package ssd

import (
	"sync"
	"testing"
)

// TestSharedArenaAcrossDevices pins the one read arena every AsyncDevice
// draws from. Two devices over different stores read, recycle and close
// concurrently; each reads one request at a time, so each holds at most one
// buffer of its own size class. A second such run, on new devices, then
// takes every buffer from the arena's free lists: its recycles grow by its
// read count and its fresh allocations by nothing. A per-device arena
// would start each device empty.
func TestSharedArenaAcrossDevices(t *testing.T) {
	const reads = 32
	stores := []struct {
		pageSize, pages, span int // span·pageSize: 1 KB → the 4 KB class, 8 KB → the 8 KB class
	}{{512, 16, 2}, {4096, 8, 2}}
	run := func() {
		var wg sync.WaitGroup
		for _, s := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d := NewAsyncDevice(newMemDevice(s.pageSize, s.pages), AsyncOptions{QueueDepth: 2})
				defer d.Close()
				for i := 0; i < reads; i++ {
					first := uint32(i % (s.pages - s.span + 1))
					d.AsyncReadOwned(first, s.span, func(data []byte, err error) {
						if err != nil || len(data) != s.span*s.pageSize || data[0] != byte(first) || data[len(data)-1] != byte(first)+byte(s.span)-1 {
							t.Errorf("page size %d, read at %d: %d bytes, %v", s.pageSize, first, len(data), err)
						}
						d.Recycle(data)
					})
					d.Drain()
				}
			}()
		}
		wg.Wait()
	}
	run()
	allocs, recycles := readArena.Stats()
	run()
	allocs2, recycles2 := readArena.Stats()
	if allocs2 != allocs || recycles2-recycles != int64(len(stores)*reads) {
		t.Fatalf("a second run's %d reads took %d fresh buffers and %d recycled ones, want 0 and %d",
			len(stores)*reads, allocs2-allocs, recycles2-recycles, len(stores)*reads)
	}
}
