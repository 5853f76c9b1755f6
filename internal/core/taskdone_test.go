package core

import (
	"sync"
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// taskLog collects the TaskDone events of a run per (iteration, class).
type taskLog struct {
	mu    sync.Mutex
	busy  map[int][2]time.Duration
	count map[int][2]int
	total int
}

func (l *taskLog) Event(e events.Event) {
	if e.Kind != events.TaskDone {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.busy == nil {
		l.busy, l.count = map[int][2]time.Duration{}, map[int][2]int{}
	}
	b, n := l.busy[e.Iteration], l.count[e.Iteration]
	b[e.N] += e.Elapsed
	n[e.N]++
	l.busy[e.Iteration], l.count[e.Iteration] = b, n
	l.total++
}

// TestTaskDoneMatchesIterStats: with CollectIterStats and a sink, every
// chunk task is reported once under its iteration and class, with the very
// duration the scheduler accounted — on one worker an iteration's tasks sum
// to its two busy times exactly — and recording changes no count. Without
// CollectIterStats not one TaskDone reaches the sink, whatever the threads.
func TestTaskDoneMatchesIterStats(t *testing.T) {
	raw, _ := gen.RMAT(gen.DefaultRMAT(1024, 14_000, 23))
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	st := buildStore(t, g, 256)
	mem := int(st.NumPages) * 15 / 100

	for _, threads := range []int{1, 2, 4} {
		quiet := &taskLog{}
		res, _, err := runFile(st, parallel, engine.Options{Threads: threads, MemoryPages: mem, Events: quiet})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want || quiet.total != 0 {
			t.Fatalf("threads=%d without CollectIterStats: %d triangles (want %d), %d TaskDone events (want 0)",
				threads, res.Triangles, want, quiet.total)
		}

		log := &taskLog{}
		res, _, err = runFile(st, parallel, engine.Options{Threads: threads, MemoryPages: mem, CollectIterStats: true, Events: log})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Fatalf("threads=%d recorded: %d triangles, want %d", threads, res.Triangles, want)
		}
		if len(res.IterStats) < 2 || len(log.count) != len(res.IterStats) {
			t.Fatalf("threads=%d: %d iterations, TaskDone events name %d", threads, len(res.IterStats), len(log.count))
		}
		for _, s := range res.IterStats {
			n, b := log.count[s.Index], log.busy[s.Index]
			if n[classExternal] != s.ExternalReqs {
				t.Errorf("threads=%d iteration %d: %d external tasks, %d requests", threads, s.Index, n[classExternal], s.ExternalReqs)
			}
			if n[classInternal] < 1 || n[classInternal] > s.InternalPages {
				t.Errorf("threads=%d iteration %d: %d internal tasks for %d internal pages", threads, s.Index, n[classInternal], s.InternalPages)
			}
			if got, want := b[classInternal]+b[classExternal], s.InternalTime+s.ExternalTime; got != want {
				t.Errorf("threads=%d iteration %d: tasks sum to %v, busy times to %v", threads, s.Index, got, want)
			}
		}
	}
}
