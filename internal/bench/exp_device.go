package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// deviceDatasets are the proxies the device experiment measures: one
// sparse and one dense workload keep the backend comparison cheap enough
// for a CI smoke run while still covering contrasting store sizes.
var deviceDatasets = []string{"lj", "orkut"}

// devicePasses is how many full sweeps of the store each cell performs:
// enough real I/O that per-read submission and completion cost (the thing
// the backends differ in) rises above timer noise.
const devicePasses = 4

// deviceSpan is the pages-per-read of the sweep, matching the coalesced
// read sizes the OPT I/O scheduler produces.
const deviceSpan = 16

// deviceReps is the best-of count for a device cell — higher than the
// sweep-wide repetitions because real cold-cache I/O is noisier than the
// simulated-latency experiments, and best-of only clips noise upward.
const deviceReps = 5

// deviceCell is one measured (dataset, codec, backend) configuration.
type deviceCell struct {
	checksum  uint64 // order-independent content digest, equal across backends
	elapsed   time.Duration
	reads     int64 // async read submissions
	batches   int64 // io_uring enter calls covering >0 SQEs (0 off-ring)
	pagesRead int64
	allocs    uint64 // heap allocations during the sweep (approximate)
	info      ssd.BackendInfo
}

// Device is the native-backend experiment (DESIGN.md §14): every
// (dataset, codec) store is swept through each available device backend by
// the asynchronous read layer — devicePasses full passes of deviceSpan-page
// reads in a deterministically shuffled order, with NO simulated latency
// and the page cache evicted before every pass. Shuffle plus eviction pins
// the measurement to the regime OPT is actually built for: a graph larger
// than memory, read as scattered coalesced runs that readahead cannot
// predict and the cache cannot absorb. In that regime elapsed_ms is real
// device time, and the backends genuinely differ — the portable pool keeps
// QueueDepth preads in flight from worker threads, the native ring keeps a
// full submission queue of O_DIRECT SQEs in flight from one syscall per
// batch. (On a warm cache the comparison would be meaningless: buffered
// reads become memcpys while O_DIRECT still pays for device I/O.) Rows
// record the backend's negotiated capabilities (O_DIRECT, io_uring),
// submission and batch counts, bytes read, heap allocations, a content
// checksum (must agree across backends), and elapsed time — the committed
// BENCH_device.json baseline catches native-path throughput regressions the
// simulated-latency experiments cannot see.
//
// elapsed_ms is a bare millisecond number so baseline comparison can parse
// it exactly (same convention as the pages experiment).
func Device(h *Harness) (*Table, error) {
	t := &Table{
		ID:    "device",
		Title: "Device backends: cold-cache async scatter sweep per (dataset, codec, backend), real I/O",
		Header: []string{
			"dataset", "codec", "backend", "direct", "ring",
			"reads", "batches", "bytes_read", "allocs", "checksum", "elapsed_ms",
		},
		Ratio: &Ratio{Column: "backend", Num: string(ssd.BackendNative), Den: string(ssd.BackendPortable)},
	}
	backends := []ssd.Backend{ssd.BackendPortable}
	if ssd.NativeAvailable() {
		backends = append(backends, ssd.BackendNative)
	} else {
		t.Notes = append(t.Notes, "native backend unavailable on this platform: portable rows only")
	}
	evict := true
	for _, name := range deviceDatasets {
		g, err := h.proxy(name)
		if err != nil {
			return nil, err
		}
		for _, codec := range storage.Codecs() {
			st, err := h.storeCodec(name, g, codec)
			if err != nil {
				return nil, err
			}
			var want uint64
			for i, backend := range backends {
				var cell *deviceCell
				for rep := 0; rep < deviceReps; rep++ {
					c, err := h.runDeviceCell(st, backend, evict)
					if errors.Is(err, errEvict) {
						// Kernel without fadvise, or a filesystem that
						// refuses it: fall back to warm-cache numbers for
						// the whole table and say so once.
						evict = false
						t.Notes = append(t.Notes, fmt.Sprintf("warm-cache fallback, backend comparison is not like-for-like: %v", err))
						c, err = h.runDeviceCell(st, backend, evict)
					}
					if err != nil {
						return nil, fmt.Errorf("bench: device: %s/%s/%s: %w", name, codec, backend, err)
					}
					if cell == nil || c.elapsed < cell.elapsed {
						cell = c
					}
				}
				if i == 0 {
					want = cell.checksum
				} else if cell.checksum != want {
					return nil, fmt.Errorf("bench: device: %s/%s/%s content diverges: %#x vs portable %#x",
						name, codec, backend, cell.checksum, want)
				}
				t.Rows = append(t.Rows, []string{
					name,
					codec,
					string(backend),
					fmt.Sprint(cell.info.Direct),
					fmt.Sprint(cell.info.Ring),
					fmt.Sprint(cell.reads),
					fmt.Sprint(cell.batches),
					fmt.Sprint(cell.pagesRead * int64(st.PageSize)),
					fmt.Sprint(cell.allocs),
					fmt.Sprintf("%016x", cell.checksum),
					fmt.Sprintf("%.3f", float64(cell.elapsed.Nanoseconds())/1e6),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("latency simulation is off: elapsed_ms is real async-read wall time over %d shuffled store sweeps in %d-page reads, best of %d, page cache evicted before each pass",
			devicePasses, deviceSpan, deviceReps),
		"batches counts io_uring submissions covering >0 SQEs; 0 means the worker-pool engine served the run",
		"checksum digests page content on the first pass and must agree across backends",
		"allocs is the heap-allocation delta over the sweep (GC-timing noise applies)",
	)
	return t, nil
}

// errEvict marks a page-cache eviction failure so Device can demote the
// whole table to warm-cache numbers instead of aborting.
var errEvict = errors.New("bench: page-cache eviction failed")

// deviceOrder is the sweep's read schedule: the store's aligned
// deviceSpan-page runs in a deterministically shuffled order, so kernel
// readahead cannot convert the scatter into one sequential stream. A fixed
// multiplicative-hash shuffle keeps the schedule identical across backends,
// repetitions, and machines.
func deviceOrder(st *storage.Store) []uint32 {
	var order []uint32
	var p uint32
	for p < st.NumPages {
		order = append(order, p)
		p += uint32(st.AlignedRange(p, deviceSpan))
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int((uint64(i)*2654435761 + 12345) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// runDeviceCell sweeps one store through the async layer over the given
// backend, collecting the backend-facing counters the device table reports.
func (h *Harness) runDeviceCell(st *storage.Store, backend ssd.Backend, evict bool) (*deviceCell, error) {
	base, err := st.DeviceBackend(backend)
	if err != nil {
		return nil, err
	}
	defer func() { _ = base.Close() }() // read-only benchmark device
	var info ssd.BackendInfo
	if ip, ok := base.(ssd.InfoProvider); ok {
		info = ip.BackendInfo()
	}
	mx := metrics.NewCollector()
	ad := ssd.NewAsyncDevice(base, ssd.AsyncOptions{QueueDepth: 8, Events: mx})
	defer ad.Close()

	order := deviceOrder(st)
	var sum, failed atomic.Uint64
	var firstErr atomic.Value
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var elapsed time.Duration
	var reads int64
	for pass := 0; pass < devicePasses; pass++ {
		if evict {
			// Outside the clock: eviction cost is setup, not device time.
			if err := ssd.EvictCache(st.Path); err != nil {
				return nil, fmt.Errorf("%w: %v", errEvict, err)
			}
		}
		digest := pass == 0 // content is pass-invariant; digest once
		start := time.Now()
		for _, first := range order {
			count := st.AlignedRange(first, deviceSpan)
			first := first
			ad.AsyncRead(first, count, func(data []byte, err error) {
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if digest {
					sum.Add(pageDigest(first, data))
				}
			})
		}
		ad.Drain()
		elapsed += time.Since(start)
		reads += int64(len(order))
	}
	runtime.ReadMemStats(&after)
	if failed.Load() > 0 {
		return nil, fmt.Errorf("%d of %d reads failed: %v", failed.Load(), reads, firstErr.Load())
	}
	return &deviceCell{
		checksum:  sum.Load(),
		elapsed:   elapsed,
		reads:     reads,
		batches:   mx.Snapshot().SubmittedBatches,
		pagesRead: mx.PagesRead(),
		allocs:    after.Mallocs - before.Mallocs,
		info:      info,
	}, nil
}

// pageDigest folds one read's content into an order-independent FNV-style
// word, keyed by the read's position so swapped pages do not cancel out.
func pageDigest(first uint32, data []byte) uint64 {
	h := uint64(14695981039346656037)
	h ^= uint64(first)
	h *= 1099511628211
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
