package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	opt "github.com/optlab/opt"
	"github.com/optlab/opt/internal/metrics"
)

// Load shape: closed loop, never more than two engine threads or two
// client connections (the host has two cores).
const (
	serveClients = 2
	warmupOps    = 3
)

// outcome is one op as the load generator saw it.
type outcome struct {
	lat    time.Duration
	edges  int64 // |E| of the store behind the op
	err    error // non-nil: the op failed (error, refusal, timeout, wrong count)
	traced bool
	lib    *libDetail  // library ops
	job    *jobOutcome // serve ops
}

// libDetail carries what a library op's Result and event stream exposed.
type libDetail struct {
	res    *opt.Result
	counts metrics.Snapshot // filled on traced ops only
	reads  int64            // completed device reads (PagesRead events)
}

// opFunc runs op i of one client. A non-nil tracer makes it a traced op.
type opFunc func(ctx context.Context, client, i int, tr *tracer) outcome

// measure drives clients closed-loop clients for d, or until each has run
// maxOps ops when maxOps > 0, and returns every outcome together with the
// wall time from the first op's start to the last op's end. traced decides
// per op index whether it records spans.
func measure(ctx context.Context, clients int, d time.Duration, maxOps int, op opFunc, tr *tracer, traced func(i int) bool) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; (maxOps == 0 || i < maxOps) && time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				var t *tracer
				if tr != nil && traced(i) {
					t = tr
				}
				o := op(ctx, c, i, t)
				o.traced = t != nil
				perClient[c] = append(perClient[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, outs := range perClient {
		all = append(all, outs...)
	}
	return all, wall
}

// libraryOp returns the opFunc of the in-process path: one
// opt.TriangulateContext call over the workload's first store, its count
// checked against the oracle.
func (e *env) libraryOp(opts opt.Options) opFunc {
	return func(ctx context.Context, _ int, i int, tr *tracer) outcome {
		st := e.stores[0]
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		o := opts
		var it *iterSpans
		mx := metrics.NewCollector()
		trace := e.w.name + "/" + strconv.Itoa(i)
		var opSpan, callSpan int
		if tr != nil {
			start := time.Now()
			opSpan = tr.open(0, trace, "op", start)
			callSpan = tr.open(opSpan, trace, "opt.TriangulateContext", start)
			it = &iterSpans{tr: tr, parent: callSpan, trace: trace}
			o.CollectIterStats = true
			o.OnEvent = func(ev opt.Event) {
				mx.Event(ev)
				it.event(ev)
			}
		}
		start := time.Now()
		res, err := opt.TriangulateContext(ctx, st, o)
		end := time.Now()
		out := outcome{lat: end.Sub(start), edges: st.NumEdges(), lib: &libDetail{res: res}}
		if tr != nil {
			args := map[string]any{}
			if res != nil {
				args = map[string]any{"iterations": res.Iterations, "pages_read": res.PagesRead, "triangles": res.Triangles}
			}
			tr.finish(callSpan, end, args)
			tr.finish(opSpan, end, nil)
			out.lib.counts = mx.Snapshot()
			out.lib.reads = it.reads
		}
		switch {
		case err != nil:
			out.err = err
		case res.Triangles != e.oracle:
			out.err = fmt.Errorf("%s counted %d triangles, oracle %d", e.w.name, res.Triangles, e.oracle)
		}
		return out
	}
}

// iterSpans turns the engine's IterationStart/End events into
// core.iteration spans, stamped by the benchmark's own clock, with the
// pages read and morph transitions seen in between attached.
type iterSpans struct {
	tr     *tracer
	parent int
	trace  string

	mu     sync.Mutex
	start  time.Time
	pages  int64
	morphs int64
	reads  int64
}

func (s *iterSpans) event(ev opt.Event) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case opt.EventIterationStart:
		s.start, s.pages, s.morphs = now, 0, 0
	case opt.EventPagesRead:
		s.pages += ev.N
		s.reads++
	case opt.EventMorph:
		s.morphs += ev.N
	case opt.EventIterationEnd:
		if !s.start.IsZero() {
			s.tr.add(s.parent, s.trace, "core.iteration", s.start, now,
				map[string]any{"index": ev.Iteration, "pages_read": s.pages, "morphs": s.morphs, "triangles": ev.N})
		}
	}
}

// serveOpFunc returns the opFunc of the optd path: each client deals its
// own schedule and runs one job at a time over its own connection.
func (e *env) serveOpFunc(seed int64) (opFunc, func()) {
	clients := make([]*jobClient, serveClients)
	scheds := make([]*scheduler, len(clients))
	for c := range clients {
		clients[c] = newJobClient(e)
		scheds[c] = newScheduler(seed, c, len(clients), len(e.w.codecs))
	}
	op := func(ctx context.Context, c, i int, tr *tracer) outcome {
		sop := scheds[c].next()
		jo := clients[c].run(ctx, sop)
		out := outcome{lat: jo.latency(), edges: e.stores[sop.Store].NumEdges(), err: jo.check(e.oracle), job: &jo}
		if tr != nil {
			e.jobSpans(tr, fmt.Sprintf("%s/c%d-%d", e.w.name, c, i), &jo)
		}
		return out
	}
	closeAll := func() {
		for _, c := range clients {
			c.close()
		}
	}
	return op, closeAll
}

// jobSpans rebuilds one job's span tree from the client's own timestamps
// (client.job, http.submit, sse.wait, cluster.task) and from the created /
// started / finished timestamps of the status document (server.queue,
// server.run); client and daemons share the host clock.
func (e *env) jobSpans(tr *tracer, trace string, jo *jobOutcome) {
	root := tr.add(0, trace, "client.job", jo.sent, jo.done, map[string]any{"kind": jo.op.Kind.String(), "id": jo.status.ID, "cached": jo.status.Cached})
	if jo.submitted.IsZero() {
		return
	}
	tr.add(root, trace, "http.submit", jo.sent, jo.submitted, nil)
	if jo.done.After(jo.submitted) {
		tr.add(root, trace, "sse.wait", jo.submitted, jo.done, nil)
	}
	s := jo.status
	if s.Started == nil || s.Finished == nil || s.Cached {
		return
	}
	if jo.op.Kind != opDist {
		tr.add(root, trace, "server.queue", s.Created, *s.Started, nil)
	}
	run := tr.add(root, trace, "server.run", *s.Started, *s.Finished, nil)
	dispatched := map[int]time.Time{}
	for _, ev := range jo.shards {
		switch ev.kind {
		case "shard-dispatched":
			if _, ok := dispatched[ev.task]; !ok {
				dispatched[ev.task] = ev.at
			}
		case "shard-merged":
			if at, ok := dispatched[ev.task]; ok {
				tr.add(run, trace, "cluster.task", at, ev.at, map[string]any{"task": ev.task})
			}
		}
	}
}

// warmUp runs the untimed ops that let caches fill and lazy set-up finish.
func warmUp(ctx context.Context, clients int, op opFunc) error {
	for i := 0; i < warmupOps; i++ {
		if o := op(ctx, i%clients, i, nil); o.err != nil {
			return fmt.Errorf("warm-up op: %w", o.err)
		}
	}
	return nil
}
