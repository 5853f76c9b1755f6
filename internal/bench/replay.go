package bench

import (
	"slices"
	"sync"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/storage"
)

// The multi-core timing model (DESIGN.md §3). The paper's speed-up results
// are statements about how a run's task stream decomposes — sizes, classes,
// barriers — so a host with fewer cores than an experiment asks for runs the
// product once on a single worker, records one events.TaskDone per task, and
// list-schedules the recorded durations onto as many cores as it likes.

// recording is one single-worker run and its task stream.
type recording struct {
	*runResult
	tasks  []events.Event // TaskDone events in completion order
	busy   time.Duration  // Σ task durations: the parallelisable work
	serial time.Duration  // what no core count changes
}

// record runs the named algorithm through engine.Run on one worker with
// per-task recording on.
func (h *Harness) record(name string, st *storage.Store, opts engine.Options) (*recording, error) {
	rec := &recording{}
	var mu sync.Mutex // device goroutines emit too
	opts.Threads, opts.CollectIterStats = 1, true
	opts.Events = events.Func(func(e events.Event) {
		if e.Kind == events.TaskDone {
			mu.Lock()
			rec.tasks = append(rec.tasks, e)
			rec.busy += e.Elapsed
			mu.Unlock()
		}
	})
	var err error
	rec.runResult, err = h.run(name, st, opts)
	return rec, err
}

// recordOPT records full OPT. Its iterations' load phases stay as measured;
// DisableMorphing changes nothing on one worker and is the replay's policy.
func (h *Harness) recordOPT(st *storage.Store, memPages int, disableMorphing bool) (*recording, error) {
	rec, err := h.record("OPT", st, engine.Options{MemoryPages: memPages, DisableMorphing: disableMorphing})
	if err != nil {
		return nil, err
	}
	for _, s := range rec.IterStats {
		rec.serial += s.LoadTime
	}
	return rec, nil
}

// recordGChi records GraphChi-Tri. Everything outside its per-record work —
// streaming, decode, rewrite — is the enforced-sequential remainder.
func (h *Harness) recordGChi(st *storage.Store, memPages int) (*recording, error) {
	rec, err := h.record("GraphChi-Tri", st, engine.Options{MemoryPages: memPages})
	if err != nil {
		return nil, err
	}
	rec.serial = rec.Elapsed - rec.busy
	return rec, nil
}

// elapsed is the run's modelled elapsed time on c cores.
func (r *recording) elapsed(c int, morph bool) time.Duration {
	return r.serial + makespans(replay(r.tasks, c, morph))
}

// replay list-schedules a recorded task stream onto c cores and returns the
// core clocks of every barrier group (Event.Iteration). Within a group each
// task, in recorded order, goes to the least-loaded eligible core. Even cores
// are internal-home and odd cores external-home, as in core.sched.run; with
// morphing every core is eligible, without it only those whose home is the
// task's class — except that a single core runs everything either way.
func replay(tasks []events.Event, c int, morph bool) map[int][]time.Duration {
	c = max(c, 1)
	groups := map[int][]time.Duration{}
	for _, t := range tasks {
		clocks := groups[t.Iteration]
		if clocks == nil {
			clocks = make([]time.Duration, c)
			groups[t.Iteration] = clocks
		}
		best := -1
		for i := range clocks {
			if !morph && c > 1 && (i%2 == 1) != (t.N == events.TaskExternal) {
				continue
			}
			if best < 0 || clocks[i] < clocks[best] {
				best = i
			}
		}
		clocks[best] += t.Elapsed
	}
	return groups
}

// makespans sums the groups' makespans: no task crosses a barrier.
func makespans(groups map[int][]time.Duration) (total time.Duration) {
	for _, clocks := range groups {
		total += slices.Max(clocks)
	}
	return total
}
