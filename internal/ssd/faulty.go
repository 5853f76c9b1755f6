package ssd

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is returned by FaultyDevice for injected failures.
var ErrInjected = errors.New("ssd: injected fault")

// FaultyDevice wraps a PageDevice and fails reads according to a schedule.
// It is used by the failure-injection tests to verify that every disk-based
// algorithm surfaces I/O errors instead of silently miscounting.
type FaultyDevice struct {
	PageDevice
	// FailEveryN makes every Nth read fail (1-based count). 0 disables.
	FailEveryN int64
	// FailAt makes exactly the FailAt-th read fail (1-based count), once —
	// the fault-sweep tests use it to walk a single injected failure across
	// every read position of a run. 0 disables.
	FailAt int64
	// FailPage makes any read covering this page fail when FailPageSet.
	FailPage    uint32
	FailPageSet bool

	reads atomic.Int64
}

// inject counts one read and reports whether the schedule fails it.
func (d *FaultyDevice) inject(first uint32, count int) bool {
	n := d.reads.Add(1)
	if d.FailEveryN > 0 && n%d.FailEveryN == 0 {
		return true
	}
	if d.FailAt > 0 && n == d.FailAt {
		return true
	}
	return d.FailPageSet && first <= d.FailPage && d.FailPage < first+uint32(count)
}

// ReadPages implements PageDevice with fault injection.
func (d *FaultyDevice) ReadPages(first uint32, count int) ([]byte, error) {
	if d.inject(first, count) {
		return nil, ErrInjected
	}
	return d.PageDevice.ReadPages(first, count)
}

// ReadPagesInto implements PageDevice with the same fault injection.
func (d *FaultyDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	if d.inject(first, count) {
		return ErrInjected
	}
	return d.PageDevice.ReadPagesInto(buf, first, count)
}

// BackendInfo forwards the wrapped device's backend description, defaulting
// to the portable backend when the device does not describe itself.
func (d *FaultyDevice) BackendInfo() BackendInfo {
	if ip, ok := d.PageDevice.(InfoProvider); ok {
		return ip.BackendInfo()
	}
	return BackendInfo{Backend: BackendPortable}
}

// Reads returns the number of read calls observed.
func (d *FaultyDevice) Reads() int64 { return d.reads.Load() }
