// Package events defines the execution engine's observation vocabulary: a
// small, allocation-free event stream that every Runner emits while a
// triangulation job progresses. It sits below both the engine and the
// metrics packages so that a metrics.Collector can act as a Sink without an
// import cycle (engine → ssd → metrics).
//
// Events are advisory: no algorithm decision may depend on whether a sink
// is attached, and sinks must be safe for concurrent use — the OPT core
// emits from worker goroutines and the device emits from its channel
// goroutines.
package events

import "time"

// Kind identifies what happened.
type Kind uint8

// Event kinds. The N payload field holds the kind-specific count noted in
// parentheses.
const (
	// RunStart marks the beginning of an engine run.
	RunStart Kind = iota
	// RunEnd marks the end of a run (N = total triangles; Elapsed = wall).
	RunEnd
	// IterationStart marks the beginning of one outer-loop iteration or
	// block (N = internal/block pages where known).
	IterationStart
	// IterationEnd marks the end of an iteration (N = triangles found in
	// the iteration; Elapsed = iteration wall time).
	IterationEnd
	// PagesRead reports completed page reads (N = pages).
	PagesRead
	// PagesWritten reports completed page writes (N = pages).
	PagesWritten
	// TrianglesFound reports discovered triangles (N = triangles).
	TrianglesFound
	// Morph reports thread-morphing activity: workers that switched task
	// class during an iteration (N = morph transitions; §3.4).
	Morph
	// CoalescedRead reports one vectored device read that merged several
	// consecutive-page chunk requests of the request list L into a single
	// submission (N = pages covered by the read).
	CoalescedRead
	// PrefetchHit reports read-ahead completions whose data was consumed:
	// the read was issued while another was still in flight, and its chunks
	// went on to be processed (N = reads).
	PrefetchHit
	// PrefetchWasted reports read-ahead completions whose data was dropped
	// — the run was cancelled or the read failed before its chunks could be
	// processed (N = reads).
	PrefetchWasted
	// SubmittedBatch reports one io_uring submission batch: a single
	// io_uring_enter call that pushed several staged reads to the kernel at
	// once (N = SQEs in the batch).
	SubmittedBatch
	// RingDepth reports, once per device open, the depth of the native
	// backend's completion ring (N = SQ entries). Absent when the run uses
	// the portable worker-pool engine.
	RingDepth
	// DirectFallback reports that a native device wanted O_DIRECT but fell
	// back to buffered reads — the store offset or page size is unaligned,
	// or the filesystem rejected the open (N = 1 per open).
	DirectFallback
	// ShardDispatched reports one shard-pair task sent to an agent by the
	// distributed coordinator (Iteration = task index; N = attempt number,
	// 1 for the first dispatch).
	ShardDispatched
	// ShardRetried reports a shard-pair task re-dispatched after an agent
	// failure or a straggler deadline (Iteration = task index; N = attempt
	// number of the replacement dispatch).
	ShardRetried
	// ShardMerged reports a shard-pair task result merged exactly once into
	// the distributed total (Iteration = task index; N = triangles the task
	// contributed; Elapsed = the task's agent-side wall time).
	ShardMerged
	// TaskDone reports one finished unit of parallelisable work — a chunk
	// task of OPT's scheduler, one streamed record of a GraphChi-Tri batch —
	// and is emitted only by a run that collects iteration stats
	// (Iteration = the barrier group the task belongs to: OPT's outer
	// iteration, GraphChi-Tri's batch; N = the task class, TaskInternal or
	// TaskExternal; Elapsed = the task's measured duration).
	TaskDone
)

// Task classes, the N of a TaskDone event: the two thread roles of §3.2.
const (
	TaskInternal int64 = iota
	TaskExternal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RunStart:
		return "run-start"
	case RunEnd:
		return "run-end"
	case IterationStart:
		return "iteration-start"
	case IterationEnd:
		return "iteration-end"
	case PagesRead:
		return "pages-read"
	case PagesWritten:
		return "pages-written"
	case TrianglesFound:
		return "triangles-found"
	case Morph:
		return "morph"
	case CoalescedRead:
		return "coalesced-read"
	case PrefetchHit:
		return "prefetch-hit"
	case PrefetchWasted:
		return "prefetch-wasted"
	case SubmittedBatch:
		return "submitted-batch"
	case RingDepth:
		return "ring-depth"
	case DirectFallback:
		return "direct-fallback"
	case ShardDispatched:
		return "shard-dispatched"
	case ShardRetried:
		return "shard-retried"
	case ShardMerged:
		return "shard-merged"
	case TaskDone:
		return "task-done"
	default:
		return "unknown-event"
	}
}

// MarshalText implements encoding.TextMarshaler, so JSON-encoded events —
// the optd SSE stream, persisted job reports — carry stable kind names
// instead of raw integers that would shift whenever a kind is inserted.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one observation. The zero Iteration is the first iteration;
// events not tied to an iteration (RunStart/RunEnd, device-level I/O)
// leave it at -1 when the emitter knows no iteration, but emitters that
// lack the context may simply leave it 0 — consumers must treat Iteration
// as informational only. The JSON tags are optd's SSE "progress" payload.
type Event struct {
	Kind      Kind          `json:"kind"`
	Algorithm string        `json:"algorithm,omitempty"`  // registry name of the emitting runner, if known
	Iteration int           `json:"iteration"`            // outer-loop iteration / block index
	N         int64         `json:"n"`                    // kind-specific count (see Kind docs)
	Elapsed   time.Duration `json:"elapsed_ns,omitempty"` // kind-specific duration (see Kind docs)
}

// Sink receives events. Implementations must be safe for concurrent use
// and must not block: emitters sit on hot paths.
type Sink interface {
	Event(e Event)
}

// Func adapts a function to Sink. The function must be safe for concurrent
// use.
type Func func(e Event)

// Event implements Sink.
func (f Func) Event(e Event) { f(e) }

// multi fans one event out to several sinks in order.
type multi []Sink

// Event implements Sink.
func (m multi) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Tee combines sinks into one, dropping nils. It returns nil when no
// non-nil sink remains, so emitters keep their cheap `if sink != nil`
// guard.
func Tee(sinks ...Sink) Sink {
	var ms multi
	for _, s := range sinks {
		if s != nil {
			ms = append(ms, s)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	}
	return ms
}
