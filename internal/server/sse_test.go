package server

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
)

// TestClosedHubCompactsRing: Close leaves exactly the history in the
// ring, oldest event first, whether the ring wrapped or never filled, and
// a subscription after Close replays it in the order it had before.
func TestClosedHubCompactsRing(t *testing.T) {
	for _, emitted := range []int{0, 5, 8, 19} {
		t.Run(fmt.Sprintf("emitted=%d", emitted), func(t *testing.T) {
			h := newEventHub(8)
			for i := 0; i < emitted; i++ {
				h.Event(events.Event{Kind: events.TrianglesFound, Iteration: i, N: 1})
			}
			before, _, cancel := h.Subscribe()
			cancel()
			h.Close()
			if len(h.ring) != min(emitted, 8) || cap(h.ring) != len(h.ring) || h.head != 0 {
				t.Fatalf("closed ring has len %d, cap %d, head %d; want len = cap = %d, head 0",
					len(h.ring), cap(h.ring), h.head, min(emitted, 8))
			}
			after, ch, _ := h.Subscribe()
			if !slices.Equal(after, before) {
				t.Fatalf("replay after Close %v, before %v", after, before)
			}
			for i, e := range after {
				if want := emitted - len(after) + i; e.Iteration != want {
					t.Fatalf("replay[%d] is event %d, want %d", i, e.Iteration, want)
				}
			}
			if _, ok := <-ch; ok || cap(ch) != 0 {
				t.Fatalf("a closed hub's live channel is open or buffered (cap %d)", cap(ch))
			}
		})
	}
}

// TestClosedHubSubscribeAllocs: a subscription to a finished job
// allocates nothing. Its replay is the compacted ring, which nothing
// writes again, and its live channel one shared closed channel; a
// channel of EventBuffer slots made only to be closed took 12 KB.
func TestClosedHubSubscribeAllocs(t *testing.T) {
	h := newEventHub(256)
	for i := 0; i < 300; i++ {
		h.Event(events.Event{Kind: events.PagesRead, Iteration: i, N: 1})
	}
	h.Close()
	allocs := testing.AllocsPerRun(100, func() {
		replay, _, cancel := h.Subscribe()
		cancel()
		if len(replay) != 256 {
			t.Fatalf("replay of %d events, want 256", len(replay))
		}
	})
	if allocs != 0 {
		t.Fatalf("Subscribe on a closed hub makes %v allocations, want 0", allocs)
	}
}

// TestAgentRetainsBoundedProgress runs what an agent optd runs on the
// serve-mix benchmark workload — grid-2 Shard2D tasks over a 4 000-vertex
// lj-density store, one budget each above the store's size so no task is
// a cache hit — and pins what the retained jobs' replay rings hold: a few
// events per task, not one event per row of block I, which filled every
// ring to its 256 slots. At this budget each block loads in one read, so a
// task emits run start, one PagesRead per block (one on the diagonal, two
// off it), one TrianglesFound and run end: at most 5 events.
func TestAgentRetainsBoundedProgress(t *testing.T) {
	if raceEnabled {
		t.Skip("counts what 600 tasks leave behind; the race detector changes nothing but the time")
	}
	d, err := gen.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(4000, int64(4000*d.Density), 1))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	path := filepath.Join(t.TempDir(), "g.optstore")
	st, err := storage.BuildFileCodec(path, g, 4096, storage.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1})
	defer m.Drain(5 * time.Second)
	if err := m.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	grid, err := cluster.NewGrid(2, st.NumVertices)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 200
	want := graph.CountTrianglesReference(g)
	for i := 0; i < jobs; i++ {
		var sum int64
		for _, s := range grid.Shards() {
			frame, err := m.RunTask(context.Background(), cluster.TaskMessage{
				ID: cluster.TaskID(fmt.Sprintf("d%d/%d-%d", i, s.I, s.J)), Grid: 2, I: s.I, J: s.J,
				Store: "g", MemoryPages: int(st.NumPages) + 1 + i,
			})
			if err != nil || frame.Err != "" {
				t.Fatalf("job %d task %+v: %v %s", i, s, err, frame.Err)
			}
			sum += frame.Triangles
		}
		if sum != want {
			t.Fatalf("job %d: tasks sum to %d triangles, reference %d", i, sum, want)
		}
	}

	m.mu.Lock()
	retained := slices.Clone(m.order)
	m.mu.Unlock()
	// Admission forgets the oldest before it adds a job, so the last
	// admission leaves one above retainedJobs.
	if len(retained) != retainedJobs+1 {
		t.Fatalf("the manager retains %d of %d tasks, want %d", len(retained), 3*jobs, retainedJobs+1)
	}
	const perTask = 5
	held, slots := 0, 0
	for _, j := range retained {
		j.hub.mu.Lock()
		n, c := len(j.hub.ring), cap(j.hub.ring)
		j.hub.mu.Unlock()
		if n > perTask || c != n {
			t.Fatalf("task %s keeps %d events in %d ring slots, want ≤ %d and no slack", j.ID, n, c, perTask)
		}
		held, slots = held+n, slots+c
	}
	t.Logf("%d retained tasks hold %d events in %d ring slots", len(retained), held, slots)
}
