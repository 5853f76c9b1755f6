package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	opt "github.com/optlab/opt"
)

// Fixed op counts of the traced run's side sections: the serve section of
// a library workload (and the library section of serve-mix) is there so
// every per-layer metric is measured on every workload.
const (
	sideServeOps   = 20 // per client
	sideLibraryOps = 6
	entryOps       = 3 // OPT_serial runs and opttri child runs
)

// runTraced is the separate traced run behind the per-layer metrics. It
// sets the workload up once, runs the layer probes, then times the
// workload's own ops for half of d, alternating untraced and traced ops
// (their ratio is the tracing overhead), and finally exercises the other
// path — optd for a library workload, the library for serve-mix — so every
// layer reports on every workload. Spans are kept in memory and written to
// benchmark/out/trace-<workload>.json at the end.
func runTraced(ctx context.Context, out io.Writer, w workload, p paths, seed int64, d time.Duration) (report, error) {
	tr := newTracer()
	m := metricSet{}
	t := time.Now()
	setupSpan := tr.open(0, w.name+"/setup", "setup", t)
	e, op, done, err := prepare(ctx, w, p, seed, tr, setupSpan)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	defer done()
	tr.finish(setupSpan, time.Now(), nil)

	t = time.Now()
	probeSpan := tr.open(0, w.name+"/probes", "probes", t)
	lp, err := e.probeLayers(m, tr, probeSpan)
	if err != nil {
		return report{}, fmt.Errorf("layer probes: %w", err)
	}
	tr.finish(probeSpan, time.Now(), nil)

	// The workload's own ops, odd ones traced.
	odd := func(i int) bool { return i%2 == 1 }
	always := func(int) bool { return true }
	outs, _ := measure(ctx, w.clients(), d/2, 0, op, tr, odd)

	// The other path, every op traced.
	libOuts, serveOuts := outs, []outcome(nil)
	if w.serve {
		libOuts, _ = measure(ctx, 1, runLimit, sideLibraryOps, e.libraryOp(w.lib), tr, always)
		serveOuts = outs
	} else {
		if err := e.startFleet(ctx); err != nil {
			return report{}, err
		}
		sop, sdone := e.serveOpFunc(seed)
		defer sdone()
		if err := warmUp(ctx, serveClients, sop); err != nil {
			return report{}, err
		}
		serveOuts, _ = measure(ctx, serveClients, runLimit, sideServeOps, sop, tr, always)
	}
	if err := ctx.Err(); err != nil {
		return report{}, err
	}

	failed, firstErr := countFailures(append(append([]outcome(nil), libOuts...), serveOuts...))
	if firstErr != nil {
		fmt.Fprintf(out, "# first failed op: %v\n", firstErr)
	}
	libP50 := e.engineMetrics(m, libOuts, lp)
	if err := e.entryMetrics(ctx, m, tr, lp, libP50); err != nil {
		fmt.Fprintf(out, "# entry-point probe failed: %v\n", err)
		failed++
	}
	e.serveMetrics(m, serveOuts)

	var tracedLat, plainLat []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if o.traced {
			tracedLat = append(tracedLat, ms(o.lat))
		} else {
			plainLat = append(plainLat, ms(o.lat))
		}
	}
	spans := tr.snapshot()
	m.set("trace.spans", float64(len(spans)), "count")
	m.set("trace.overhead_frac", ratio(median(tracedLat), median(plainLat))-1, "ratio")

	path := filepath.Join(p.out, "trace-"+w.name+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "# traced run: %d own ops (%d traced), %d library ops, %d serve ops; %d spans written to %s\n",
		len(outs), len(tracedLat), len(libOuts), len(serveOuts), len(spans), path)
	printSelfTimes(out, selfTimes(spans))
	printMetrics(out, m)
	attempted := len(libOuts) + len(serveOuts)
	return report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func countFailures(outs []outcome) (failed int, first error) {
	for _, o := range outs {
		if o.err != nil {
			if first == nil {
				first = o.err
			}
			failed++
		}
	}
	return failed, first
}

// engineMetrics reports the engine.* and core.* metrics as medians over the
// traced library ops, and returns the median latency of all library ops.
func (e *env) engineMetrics(m metricSet, outs []outcome, lp *layerProbe) (p50 float64) {
	pages := float64(e.stores[0].NumPages())
	var lat, run, overhead, iters, ops, readPerPage, reused, coalesced, perRead, prefetch,
		load, internal, external, iterMs, morphs []float64
	for _, o := range outs {
		if o.err != nil || o.lib == nil || o.lib.res == nil {
			continue
		}
		r := o.lib.res
		lat = append(lat, ms(o.lat))
		overhead = append(overhead, ms(o.lat-r.Elapsed))
		if !o.traced {
			continue
		}
		c := o.lib.counts
		run = append(run, ms(r.Elapsed))
		iters = append(iters, float64(r.Iterations))
		ops = append(ops, float64(r.IntersectOps))
		readPerPage = append(readPerPage, ratio(float64(r.PagesRead), pages))
		reused = append(reused, ratio(float64(r.ReusedPages), float64(r.ReusedPages+r.PagesRead)))
		coalesced = append(coalesced, float64(c.CoalescedReads))
		perRead = append(perRead, ratio(float64(r.PagesRead), float64(o.lib.reads)))
		prefetch = append(prefetch, ratio(float64(c.PrefetchHits), float64(c.PrefetchHits+c.PrefetchWasted)))
		morphs = append(morphs, float64(c.Morphs))
		var l, in, ex time.Duration
		for _, s := range r.IterStats {
			l += s.LoadTime
			in += s.InternalTime
			ex += s.ExternalTime
			iterMs = append(iterMs, ms(s.Elapsed))
		}
		load, internal, external = append(load, l.Seconds()), append(internal, in.Seconds()), append(external, ex.Seconds())
	}
	m.set("engine.run_ms", median(run), "ms")
	m.set("core.iterations", median(iters), "count")
	m.set("core.intersect_ops", median(ops), "count")
	m.set("core.pages_read_per_page", median(readPerPage), "ratio")
	m.set("core.reused_page_ratio", median(reused), "ratio")
	m.set("core.coalesced_reads", median(coalesced), "count")
	m.set("core.pages_per_read", median(perRead), "pages")
	m.set("core.prefetch_hit_ratio", median(prefetch), "ratio")
	m.set("core.morphs", median(morphs), "count")
	m.set("core.load_s", median(load), "s")
	m.set("core.internal_busy_s", median(internal), "s")
	m.set("core.external_busy_s", median(external), "s")
	m.set("core.iter_ms_p50", median(iterMs), "ms")
	m.set("opt.call_overhead_ms", median(overhead), "ms")
	// (sweep + decode) per pass over the store, plus the kernel, against
	// the run: above 1 the overlap hid work, below 1 the framework spent
	// time the probes do not attribute.
	attributed := (lp.sweep+lp.decode).Seconds()*median(readPerPage) + lp.kernel.Seconds()
	m.set("core.attributed_ratio", ratio(attributed, median(run)/1000), "ratio")
	return median(lat)
}

// entryMetrics times the other entry points on the same cell: OPT_serial
// (the ideal and thread-scaling references), one listing op, and the
// cmd/opttri child process.
func (e *env) entryMetrics(ctx context.Context, m metricSet, tr *tracer, lp *layerProbe, libP50 float64) error {
	ideal := (lp.syncSweep + lp.kernel).Seconds()
	m.set("core.ideal_s", ideal, "s")

	serial := e.w.lib
	serial.Algorithm = opt.OPTSerial
	souts, _ := measure(ctx, 1, runLimit, entryOps, e.libraryOp(serial), nil, nil)
	var serialMs []float64
	for _, o := range souts {
		if o.err != nil {
			return fmt.Errorf("OPT_serial: %w", o.err)
		}
		serialMs = append(serialMs, ms(o.lib.res.Elapsed))
	}
	m.set("core.ideal_ratio", ratio(median(serialMs)/1000, ideal), "ratio")
	m.set("core.thread_speedup", ratio(median(serialMs), libP50), "ratio")

	// Listing: the same op with a triangle sink; its order-independent
	// checksum must equal the oracle listing's.
	listing := e.w.lib
	var sum atomic.Uint64
	listing.OnTriangles = func(u, v uint32, ws []uint32) { sum.Add(triangleSum(u, v, ws)) }
	lo := e.libraryOp(listing)(ctx, 0, 0, nil)
	if lo.err != nil {
		return fmt.Errorf("listing op: %w", lo.err)
	}
	if sum.Load() != lp.listSum {
		return fmt.Errorf("listing checksum %x differs from the oracle listing's %x", sum.Load(), lp.listSum)
	}
	m.set("core.list_overhead_frac", ratio(ms(lo.lat), libP50)-1, "ratio")

	var walls []float64
	for i := 0; i < entryOps; i++ {
		t := time.Now()
		wall, err := e.opttriRun(ctx)
		if err != nil {
			return err
		}
		tr.add(0, fmt.Sprintf("%s/opttri-%d", e.w.name, i), "opttri", t, time.Now(), nil)
		walls = append(walls, ms(wall))
	}
	m.set("opttri.wall_ms", median(walls), "ms")
	m.set("opttri.overhead_ms", median(walls)-libP50, "ms")
	return nil
}

// serveMetrics reports the server.* and cluster.* metrics from what the
// clients saw and from the timestamps and reports in the status documents.
func (e *env) serveMetrics(m metricSet, outs []outcome) {
	var submit, queue, run, overhead, lag, miss, hit, dist,
		imbalance, dispatch, taskPages []float64
	var hits, rejected, jobs, tasks, retries, stragglers, duplicates float64
	for _, o := range outs {
		jo := o.job
		if jo == nil {
			continue
		}
		if jo.rejected {
			rejected++
		}
		if o.err != nil {
			continue
		}
		jobs++
		s := jo.status
		submit = append(submit, ms(jo.submitted.Sub(jo.sent)))
		switch {
		case s.Cached:
			hits++
			hit = append(hit, ms(o.lat))
		case s.Result != nil && s.Started != nil && s.Finished != nil:
			miss = append(miss, ms(o.lat))
			queue = append(queue, ms(s.Started.Sub(s.Created)))
			run = append(run, ms(s.Finished.Sub(*s.Started)))
			overhead = append(overhead, ms(o.lat)-float64(s.Result.ElapsedNS)/1e6)
			lag = append(lag, ms(jo.done.Sub(*s.Finished)))
		case s.Report != nil:
			r := s.Report
			dist = append(dist, ms(o.lat))
			tasks += float64(r.Tasks)
			retries += float64(r.Retries)
			stragglers += float64(r.Stragglers)
			duplicates += float64(r.Duplicates)
			var sum, max, read float64
			for _, t := range r.PerTask {
				el := float64(t.Report.ElapsedNS) / 1e6
				sum += el
				if el > max {
					max = el
				}
				read += float64(t.Report.PagesRead)
			}
			imbalance = append(imbalance, ratio(max, ratio(sum, float64(len(r.PerTask)))))
			// A task's elapsed time runs from its admission on the agent, so
			// the longest one already holds the wait behind the agent's other
			// tasks; what is left of the job is the coordinator's own cost.
			dispatch = append(dispatch, float64(r.ElapsedNS)/1e6-max)
			taskPages = append(taskPages, ratio(read, float64(e.stores[jo.op.Store].NumPages())))
		}
	}
	m.set("server.submit_ms", median(submit), "ms")
	m.set("server.queue_wait_ms", median(queue), "ms")
	m.set("server.run_ms", median(run), "ms")
	m.set("server.overhead_ms", median(overhead), "ms")
	m.set("server.sse_done_lag_ms", median(lag), "ms")
	m.set("server.job_miss_p50_ms", median(miss), "ms")
	m.set("server.job_hit_p50_ms", median(hit), "ms")
	m.set("server.cache_hit_ratio", ratio(hits, jobs), "ratio")
	m.set("server.rejected", rejected, "count")
	m.set("cluster.dist_job_p50_ms", median(dist), "ms")
	m.set("cluster.tasks", ratio(tasks, float64(len(dist))), "count")
	m.set("cluster.retries", retries, "count")
	m.set("cluster.stragglers", stragglers, "count")
	m.set("cluster.duplicates", duplicates, "count")
	m.set("cluster.task_imbalance", median(imbalance), "ratio")
	m.set("cluster.dispatch_overhead_ms", median(dispatch), "ms")
	m.set("cluster.pages_read_per_page", median(taskPages), "ratio")
}
