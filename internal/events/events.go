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

// Kind identifies what happened. Its field is unexported, so no other
// package can make a Kind: the kinds declared below are the only ones
// there are, and the zero Kind is RunStart. They are vars, so the compiler
// does not stop a package reassigning one; review guards against that.
type Kind struct{ id uint8 }

// Event kinds. The N payload field holds the kind-specific count noted in
// parentheses. Each id indexes kindNames.
var (
	// RunStart marks the beginning of an engine run.
	RunStart = Kind{}
	// RunEnd marks the end of a run (N = total triangles; Elapsed = wall).
	RunEnd = Kind{1}
	// IterationStart marks the beginning of one outer-loop iteration or
	// block (N = internal/block pages where known).
	IterationStart = Kind{2}
	// IterationEnd marks the end of an iteration (N = triangles found in
	// the iteration; Elapsed = iteration wall time).
	IterationEnd = Kind{3}
	// PagesRead reports completed page reads (N = pages).
	PagesRead = Kind{4}
	// PagesWritten reports completed page writes (N = pages).
	PagesWritten = Kind{5}
	// TrianglesFound reports discovered triangles (N = triangles).
	TrianglesFound = Kind{6}
	// Morph reports thread-morphing activity: workers that switched task
	// class during an iteration (N = morph transitions; §3.4).
	Morph = Kind{7}
	// CoalescedRead reports one vectored device read that merged several
	// consecutive-page chunk requests of the request list L into a single
	// submission (N = pages covered by the read).
	CoalescedRead = Kind{8}
	// PrefetchHit reports read-ahead completions whose data was consumed:
	// the read was issued while another was still in flight, and its chunks
	// went on to be processed (N = reads).
	PrefetchHit = Kind{9}
	// PrefetchWasted reports read-ahead completions whose data was dropped
	// — the run was cancelled or the read failed before its chunks could be
	// processed (N = reads).
	PrefetchWasted = Kind{10}
	// SubmittedBatch reports one io_uring submission batch: a single
	// io_uring_enter call that pushed several staged reads to the kernel at
	// once (N = SQEs in the batch).
	SubmittedBatch = Kind{11}
	// RingDepth reports, once per device open, the depth of the native
	// backend's completion ring (N = SQ entries). Absent when the run uses
	// the portable worker-pool engine.
	RingDepth = Kind{12}
	// DirectFallback reports that a native device wanted O_DIRECT but fell
	// back to buffered reads — the store offset or page size is unaligned,
	// or the filesystem rejected the open (N = 1 per open).
	DirectFallback = Kind{13}
	// ShardDispatched reports one shard-pair task sent to an agent by the
	// distributed coordinator (Iteration = task index; N = attempt number,
	// 1 for the first dispatch).
	ShardDispatched = Kind{14}
	// ShardRetried reports a shard-pair task re-dispatched after an agent
	// failure or a straggler deadline (Iteration = task index; N = attempt
	// number of the replacement dispatch).
	ShardRetried = Kind{15}
	// ShardMerged reports a shard-pair task result merged exactly once into
	// the distributed total (Iteration = task index; N = triangles the task
	// contributed; Elapsed = the task's agent-side wall time).
	ShardMerged = Kind{16}
	// TaskDone reports one finished unit of parallelisable work — a chunk
	// task of OPT's scheduler, one streamed record of a GraphChi-Tri batch —
	// and is emitted only by a run that collects iteration stats
	// (Iteration = the barrier group the task belongs to: OPT's outer
	// iteration, GraphChi-Tri's batch; N = the task class, TaskInternal or
	// TaskExternal; Elapsed = the task's measured duration).
	TaskDone = Kind{17}
)

// Task classes, the N of a TaskDone event: the two thread roles of §3.2.
const (
	TaskInternal int64 = iota
	TaskExternal
)

// kindNames spells each kind, indexed by its id: the wire name of optd's
// SSE stream and persisted job reports.
var kindNames = [...]string{
	"run-start", "run-end", "iteration-start", "iteration-end",
	"pages-read", "pages-written", "triangles-found", "morph",
	"coalesced-read", "prefetch-hit", "prefetch-wasted", "submitted-batch",
	"ring-depth", "direct-fallback", "shard-dispatched", "shard-retried",
	"shard-merged", "task-done",
}

// String implements fmt.Stringer.
func (k Kind) String() string { return kindNames[k.id] }

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
