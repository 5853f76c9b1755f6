package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/server"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"

	_ "github.com/optlab/opt/internal/baselines/cc" // registers "CC-Seq"
)

// burstRunner waits for one value on burstGo, then emits burstEvents
// numbered progress events at once and finds one triangle.
type burstRunner struct{}

const burstEvents = 50

var burstGo = make(chan struct{})

func (burstRunner) Run(ctx context.Context, _ *storage.Store, _ ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	select {
	case <-burstGo:
	case <-ctx.Done():
		return &engine.Result{}, ctx.Err()
	}
	for i := 0; i < burstEvents; i++ {
		opts.Events.Event(events.Event{Kind: events.TrianglesFound, Iteration: i, N: 1})
	}
	return &engine.Result{Triangles: 1, Iterations: 1}, nil
}

func init() { engine.Register(engine.Info{Name: "test-burst"}, burstRunner{}) }

// flushCounter is a ResponseWriter that counts its flushes and runs
// onFlush before each one.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	onFlush func(n int)
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.onFlush(f.flushes)
	f.ResponseRecorder.Flush()
}

// TestSSEFlushesOncePerBatch pins how the event stream batches its
// flushes: events already queued when the handler turns to its live channel
// go out as one batch with one flush, every frame in order and "done"
// last. The job is parked until the handler has flushed its (empty)
// replay; then the run emits its burst and ends, so the whole burst and the
// hub's close wait in the subscriber's channel.
func TestSSEFlushesOncePerBatch(t *testing.T) {
	path := buildStore(t, graph.Complete(8), 128)
	m := server.New(server.Config{Workers: 1})
	defer m.Drain(5 * time.Second)
	if err := m.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(server.Spec{Store: "g", Algorithm: "test-burst"})
	if err != nil {
		t.Fatal(err)
	}
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder(), onFlush: func(n int) {
		if n == 1 {
			burstGo <- struct{}{}
			waitDone(t, job)
		}
	}}
	server.NewHandler(m).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID+"/events", nil))

	frames := strings.Split(strings.TrimSuffix(w.Body.String(), "\n\n"), "\n\n")
	next := 0 // the burst event expected next
	for i, f := range frames[:len(frames)-1] {
		kind, data, _ := strings.Cut(f, "\n")
		var e struct {
			Kind      string `json:"kind"`
			Iteration int    `json:"iteration"`
		}
		if kind != "event: progress" || json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &e) != nil {
			t.Fatalf("frame %d is %q, want a progress event", i, f)
		}
		if e.Kind == events.TrianglesFound.String() {
			if e.Iteration != next {
				t.Fatalf("frame %d carries burst event %d, want %d", i, e.Iteration, next)
			}
			next++
		}
	}
	if next != burstEvents {
		t.Fatalf("%d of %d burst events streamed:\n%s", next, burstEvents, w.Body.String())
	}
	if last := frames[len(frames)-1]; !strings.HasPrefix(last, "event: done\n") {
		t.Fatalf("last frame is %q, want done", last)
	}
	// One flush for the replay, one for the queued burst and its done.
	if w.flushes != 2 {
		t.Fatalf("%d frames in %d flushes, want 2", len(frames), w.flushes)
	}
}

// TestJobsLeaveTempDir pins that a job's scratch files live and die with
// the runner that makes them: the manager hands every job the daemon's own
// directory, and neither a CC job, which writes its oriented graph into a
// subdirectory of it, nor an OPT job, which writes nothing, leaves an entry
// behind.
func TestJobsLeaveTempDir(t *testing.T) {
	g := graph.Complete(20)
	path := buildStore(t, g, 128)
	dir := t.TempDir()
	m := server.New(server.Config{Workers: 1, TempDir: dir})
	defer m.Drain(5 * time.Second)
	if err := m.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	want := graph.CountTrianglesReference(g)
	for _, algo := range []string{"CC-Seq", "OPT"} {
		job, err := m.Submit(server.Spec{Store: "g", Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if res, err := job.Result(); err != nil || res.Triangles != want {
			t.Fatalf("%s job: %+v, %v; want %d triangles", algo, res, err, want)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("after a %s job the temp dir holds %v (%v), want nothing", algo, ents, err)
		}
	}
}
