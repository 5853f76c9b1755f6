// Package server_test drives the optd serving layer end to end over real
// HTTP: bounded admission with 429 backpressure, global page-budget
// arbitration, SSE progress streams, DELETE cancellation, digest-keyed
// result caching, and graceful drain with zero goroutine leaks.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/server"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"

	_ "github.com/optlab/opt/internal/baselines/mgt" // registers "MGT"
)

// gate lets tests hold admitted jobs inside engine.Run until released, so
// worker-pool and queue occupancy are deterministic. Each test installs
// its own channel.
var gate atomic.Value // chan struct{}

// gatedRunner blocks on the current gate channel (if any), then delegates
// to the real MGT runner. Cancellation while parked returns a partial
// result plus the context error, exactly per the Runner contract.
type gatedRunner struct{}

func (gatedRunner) Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	if ch, _ := gate.Load().(chan struct{}); ch != nil {
		select {
		case <-ch:
		case <-ctx.Done():
			return &engine.Result{}, ctx.Err()
		}
	}
	r, _, ok := engine.Lookup("MGT")
	if !ok {
		return nil, errors.New("MGT runner not registered")
	}
	return r.Run(ctx, st, dev, opts)
}

// blockingRunner parks until cancelled, returning a partial result — the
// drain-deadline tests use it to force the forced-cancellation path.
type blockingRunner struct{}

func (blockingRunner) Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	<-ctx.Done()
	return &engine.Result{Triangles: 1, Iterations: 1}, ctx.Err()
}

// ctxRunner hands its run context to the test through runCtx and returns
// at once.
type ctxRunner struct{}

var runCtx = make(chan context.Context, 1)

func (ctxRunner) Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	runCtx <- ctx
	return &engine.Result{}, nil
}

func init() {
	engine.Register(engine.Info{Name: "test-gated", Parallel: true}, gatedRunner{})
	engine.Register(engine.Info{Name: "test-blocking"}, blockingRunner{})
	engine.Register(engine.Info{Name: "test-ctx"}, ctxRunner{})
}

// buildStore writes g into a fresh slotted-page store file and returns its
// path.
func buildStore(t testing.TB, g *graph.Graph, pageSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.optstore")
	if _, err := storage.BuildFile(path, g, pageSize); err != nil {
		t.Fatal(err)
	}
	return path
}

func postJob(t *testing.T, ts *httptest.Server, spec server.Spec) (int, server.Status, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, st, resp.Header
}

func getStatus(t *testing.T, ts *httptest.Server, id string) server.Status {
	t.Helper()
	_, raw := callStatus(t, ts, http.MethodGet, "/jobs/"+id, nil, http.StatusOK)
	var st server.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, m *server.Manager, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State().String() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s never reached %q (state %v)", id, want, j.State())
}

// TestBackpressureE2E is the acceptance scenario: a daemon with worker
// pool 2 and queue depth 2 takes 8 jobs; exactly the 4 overflow jobs get
// 429 + Retry-After, every admitted job finishes with the in-memory
// reference count, the global page budget is never exceeded (asserted
// through the accounting hook), and the drain completes within its
// deadline leaking zero goroutines.
func TestBackpressureE2E(t *testing.T) {
	g := graph.Complete(25)
	want := graph.CountTrianglesReference(g) // C(25,3) = 2300
	path := buildStore(t, g, 128)

	const (
		perJobPages = 8
		totalPages  = 2 * perJobPages // exactly two concurrent budgets
	)
	baseline := runtime.NumGoroutine()
	m := server.New(server.Config{
		Workers:    2,
		QueueDepth: 2,
		TotalPages: totalPages,
	})
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()

	release := make(chan struct{})
	gate.Store(release)

	spec := func(i int) server.Spec {
		return server.Spec{Store: path, Algorithm: "test-gated", Options: engine.Options{
			MemoryPages: perJobPages,
			Threads:     i + 1, // distinct digests: no accidental cache hits
		}}
	}

	// Fill the pool: two jobs admitted and parked inside engine.Run with
	// their budgets acquired.
	var admitted []string
	for i := 0; i < 2; i++ {
		code, st, _ := postJob(t, ts, spec(i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, code)
		}
		admitted = append(admitted, st.ID)
		waitState(t, m, st.ID, "running")
	}
	// Fill the queue: two more admitted, parked in the bounded queue.
	for i := 2; i < 4; i++ {
		code, st, _ := postJob(t, ts, spec(i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, code)
		}
		admitted = append(admitted, st.ID)
	}
	// Overflow: four concurrent submissions beyond pool+queue must all be
	// rejected with 429 and a Retry-After hint.
	var wg sync.WaitGroup
	var rejected atomic.Int32
	for i := 4; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr := postJob(t, ts, spec(i))
			if code != http.StatusTooManyRequests {
				t.Errorf("overflow job %d: status %d, want 429", i, code)
				return
			}
			if hdr.Get("Retry-After") == "" {
				t.Errorf("overflow job %d: missing Retry-After", i)
			}
			rejected.Add(1)
		}(i)
	}
	wg.Wait()
	if got := rejected.Load(); got != 4 {
		t.Fatalf("rejected %d jobs, want exactly 4", got)
	}
	if len(m.Jobs()) != 4 {
		t.Fatalf("job table has %d entries, want the 4 admitted", len(m.Jobs()))
	}

	// Release the gate: the two runners proceed, the queue drains, all four
	// admitted jobs complete with the reference count.
	close(release)
	gate.Store((chan struct{})(nil))
	for _, id := range admitted {
		waitState(t, m, id, "done")
		st := getStatus(t, ts, id)
		if st.Result == nil || st.Result.Triangles != want {
			t.Fatalf("job %s: result %+v, want %d triangles", id, st.Result, want)
		}
		if st.Error != "" {
			t.Fatalf("job %s: unexpected error %q", id, st.Error)
		}
	}

	// Budget invariant: with the pool parked, both budgets were held at
	// once, and in-use never went above the total: the high-water mark,
	// kept under the budget lock, is exactly the total.
	if hw := m.Budget().HighWater(); hw != totalPages {
		t.Fatalf("Budget().HighWater() = %d, want %d (two concurrent jobs, never more)", hw, totalPages)
	}

	// Graceful drain: nothing in flight, so the pool winds down well
	// within the deadline and no goroutines outlive the manager.
	start := time.Now()
	if forced, _ := m.Drain(5 * time.Second); forced {
		t.Fatal("idle drain hit the deadline")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v, want under the deadline", d)
	}
	if _, err := m.Submit(spec(9)); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("Submit after drain = %v, want ErrDraining", err)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
	testutil.WaitGoroutines(t, baseline, "job manager drain")
}

// TestCancelQueued covers DELETE for the lifecycle position only local
// jobs wait in: a queued job moves straight to canceled without ever
// running. (DELETE of a running job is TestJobLifecycle's, for both kinds.)
func TestCancelQueued(t *testing.T) {
	path := buildStore(t, graph.Complete(10), 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()
	defer m.Drain(5 * time.Second)

	release := make(chan struct{})
	gate.Store(release)
	defer gate.Store((chan struct{})(nil))
	defer close(release)

	running, err := m.Submit(server.Spec{Store: path, Algorithm: "test-gated"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, "running")
	queued, err := m.Submit(server.Spec{Store: path, Algorithm: "test-gated", Options: engine.Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	callStatus(t, ts, http.MethodDelete, "/jobs/"+queued.ID, nil, http.StatusAccepted)
	waitState(t, m, queued.ID, "canceled")
	if st := getStatus(t, ts, queued.ID); st.Started != nil {
		t.Fatalf("queued job started=%v after cancel; it must never run", st.Started)
	}
	if res, err := queued.Result(); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel left %+v / %v, want no result and context.Canceled", res, err)
	}
}

// TestJobContextReleasedOnFinish pins that a job's run context is released
// when the job ends, not at drain: it is a child of the manager's root
// context, and one left live keeps its timer and its place among the
// root's children until Drain. Both of Manager.run's constructors are
// covered: WithTimeout under a default timeout, WithCancel without one.
func TestJobContextReleasedOnFinish(t *testing.T) {
	path := buildStore(t, graph.Complete(6), 128)
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{{"timeout", time.Hour}, {"no-timeout", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			m := server.New(server.Config{Workers: 1, QueueDepth: 1, DefaultTimeout: tc.timeout})
			defer m.Drain(5 * time.Second)

			j, err := m.Submit(server.Spec{Store: path, Algorithm: "test-ctx"})
			if err != nil {
				t.Fatal(err)
			}
			var ctx context.Context
			select {
			case ctx = <-runCtx:
			case <-time.After(5 * time.Second):
				t.Fatal("the runner never started")
			}
			if _, hasDeadline := ctx.Deadline(); hasDeadline != (tc.timeout > 0) {
				t.Fatalf("run context has a deadline = %v, want %v", hasDeadline, tc.timeout > 0)
			}
			<-j.Done()
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("the job's run context is still live 5 s after the job finished")
			}
		})
	}
}

// TestResultCache pins the digest-keyed fast path: an identical spec over
// the same store is served 200 from the cache without re-running, while
// any spec difference forces a fresh 202 run.
func TestResultCache(t *testing.T) {
	g := graph.Complete(12)
	want := graph.CountTrianglesReference(g)
	path := buildStore(t, g, 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()
	defer m.Drain(5 * time.Second)

	spec := server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{MemoryPages: 4}}
	code, first, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	waitState(t, m, first.ID, "done")

	code, second, _ := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("identical resubmit = %d, want 200 (cache hit)", code)
	}
	if !second.Cached || second.State != "done" {
		t.Fatalf("resubmit status = %+v, want cached done", second)
	}
	if second.Result == nil || second.Result.Triangles != want {
		t.Fatalf("cached result %+v, want %d triangles", second.Result, want)
	}
	if hits := m.Stats().CacheHits; hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}
	// A hit serves the run's stored metrics snapshot, not an empty one.
	for _, st := range []server.Status{second, getStatus(t, ts, second.ID)} {
		if st.Metrics == nil || st.Metrics.PagesRead == 0 || st.Metrics.PagesRead != st.Result.PagesRead {
			t.Fatalf("cached job metrics %+v, want the %d pages read of its result", st.Metrics, st.Result.PagesRead)
		}
	}

	differing := spec
	differing.MemoryPages = 6
	if code, third, _ := postJob(t, ts, differing); code != http.StatusAccepted {
		t.Fatalf("differing spec = %d, want a fresh 202 run", code)
	} else {
		waitState(t, m, third.ID, "done")
	}
}

// TestDeviceCloseFailureFailsJob wraps every job's device in one whose
// Close fails: the job that ran cleanly must still fail with the close
// error, and its result must not enter the cache.
func TestDeviceCloseFailureFailsJob(t *testing.T) {
	path := buildStore(t, graph.Complete(12), 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 4, WrapDevice: func(d ssd.PageDevice) ssd.PageDevice {
		return &ssd.FaultyDevice{PageDevice: d, FailClose: true}
	}})
	defer m.Drain(5 * time.Second)
	spec := server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{MemoryPages: 4}}
	for i := 0; i < 2; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if _, err := j.Result(); !errors.Is(err, ssd.ErrInjected) || j.State().String() != "failed" {
			t.Fatalf("job %s: state %v, err %v; want failed with ssd.ErrInjected", j.ID, j.State(), err)
		}
	}
	if hits := m.Stats().CacheHits; hits != 0 {
		t.Fatalf("CacheHits = %d: a run whose device failed to close was cached", hits)
	}
}

// TestBudgetSerializesJobs runs two jobs whose budgets cannot coexist: the
// second must wait for the first to release its pages, so the budget's
// high-water mark never goes above the total.
func TestBudgetSerializesJobs(t *testing.T) {
	g := graph.Complete(12)
	want := graph.CountTrianglesReference(g)
	path := buildStore(t, g, 128)
	m := server.New(server.Config{
		Workers:    2,
		QueueDepth: 2,
		TotalPages: 8,
	})
	defer m.Drain(5 * time.Second)

	var jobs []*server.Job
	for i := 0; i < 2; i++ {
		j, err := m.Submit(server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{MemoryPages: 8, Threads: i + 1}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
		if res.Triangles != want {
			t.Fatalf("job %s: %d triangles, want %d", j.ID, res.Triangles, want)
		}
	}
	if hw := m.Budget().HighWater(); hw != 8 {
		t.Fatalf("budget high water %d with total 8 and two 8-page jobs: want 8, the jobs one at a time", hw)
	}
}

// TestSubmitValidation maps every admission failure onto its HTTP status.
func TestSubmitValidation(t *testing.T) {
	path := buildStore(t, graph.Complete(10), 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 1, TotalPages: 10})
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()
	defer m.Drain(5 * time.Second)

	cases := []struct {
		name string
		spec server.Spec
		code int
	}{
		{"unknown algorithm", server.Spec{Store: path, Algorithm: "nope"}, http.StatusBadRequest},
		{"negative threads", server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{Threads: -1}}, http.StatusBadRequest},
		{"bad timeout", server.Spec{Store: path, Algorithm: "MGT", Timeout: "soon"}, http.StatusBadRequest},
		{"unknown codec", server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{Codec: "zstd"}}, http.StatusBadRequest},
		{"missing store", server.Spec{Algorithm: "MGT"}, http.StatusBadRequest},
		{"unreadable store", server.Spec{Store: path + ".missing", Algorithm: "MGT"}, http.StatusBadRequest},
		{"budget too large", server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{MemoryPages: 64}}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if code, _, _ := postJob(t, ts, tc.spec); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
	// Validation errors must name the offending field uniformly.
	_, err := m.Submit(server.Spec{Store: path, Algorithm: "MGT", Options: engine.Options{Threads: -1}})
	if err == nil || !strings.Contains(err.Error(), "Options.Threads") {
		t.Fatalf("Submit error %v, want it to name Options.Threads", err)
	}

	for _, target := range []string{"/jobs/j999", "/jobs/j999/events"} {
		resp, err := ts.Client().Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", target, resp.StatusCode)
		}
	}
}

// TestRegisteredStores covers name-based store addressing: /stores lists
// registrations and specs may reference stores by name.
func TestRegisteredStores(t *testing.T) {
	g := graph.Complete(12)
	want := graph.CountTrianglesReference(g)
	path := buildStore(t, g, 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 1})
	defer m.Drain(5 * time.Second)
	if err := m.RegisterStore("k12", path); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterStore("", path); err == nil {
		t.Fatal("empty store name must be rejected")
	}
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/stores")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(names) != 1 || names[0] != "k12" {
		t.Fatalf("/stores = %v, want [k12]", names)
	}

	job, err := m.Submit(server.Spec{Store: "k12", Algorithm: "MGT"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil || res.Triangles != want {
		t.Fatalf("named-store job = %+v/%v, want %d triangles", res, err, want)
	}
}

// chattyRunner emits chattyEvents numbered progress events and finds one
// triangle: more events than a hub's replay ring holds.
type chattyRunner struct{}

const chattyEvents = 300

func (chattyRunner) Run(_ context.Context, _ *storage.Store, _ ssd.PageDevice, opts engine.Options) (*engine.Result, error) {
	for i := 0; i < chattyEvents; i++ {
		opts.Events.Event(events.Event{Kind: events.TrianglesFound, Iteration: i, N: 1})
	}
	return &engine.Result{Triangles: 1, Iterations: 1}, nil
}

// TestJobTableBounded pins the retention rule: the job table keeps the
// newest 256 finished jobs and whatever is queued or running, a forgotten
// job answers 404, the result cache outlives the table (every exact repeat
// is still a hit), and a retained job's replay ring — now a real ring —
// still hands a late subscriber its last 256 events in order.
func TestJobTableBounded(t *testing.T) {
	engine.Register(engine.Info{Name: "test-chatty"}, chattyRunner{})
	path := buildStore(t, graph.Complete(12), 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()
	defer m.Drain(5 * time.Second)

	const jobs = 300
	spec := func(i int) server.Spec {
		return server.Spec{Store: path, Algorithm: "test-chatty", Options: engine.Options{MemoryPages: 4 + i}}
	}
	ids := make([]string, jobs)
	for i := range ids {
		code, st, _ := postJob(t, ts, spec(i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit = %d, want 202", i, code)
		}
		ids[i] = st.ID
		waitState(t, m, st.ID, "done")
	}
	if tracked := m.Stats().Jobs; tracked > 256+1 {
		t.Fatalf("%d jobs tracked after %d ran, want ≤ 256 and the one in flight", tracked, jobs)
	}
	if _, ok := m.Get(ids[jobs-1]); !ok {
		t.Fatal("the newest job was forgotten")
	}
	for _, sub := range []string{"", "/events"} {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + ids[0] + sub)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /jobs/%s%s = %d, want 404 for a forgotten job", ids[0], sub, resp.StatusCode)
		}
	}

	// The cache is keyed by digest, not by the job that filled it.
	for i := 0; i < jobs; i++ {
		code, st, _ := postJob(t, ts, spec(i))
		if code != http.StatusOK || !st.Cached || st.Result == nil || st.Result.Triangles != 1 {
			t.Fatalf("repeat of job %d = %d %+v, want a cached 200", i, code, st)
		}
	}
	if hits := m.Stats().CacheHits; hits != jobs {
		t.Fatalf("CacheHits = %d, want %d", hits, jobs)
	}
	if tracked := m.Stats().Jobs; tracked > 256+1 {
		t.Fatalf("%d jobs tracked after the repeats, want ≤ 257", tracked)
	}

	// A fresh chatty job, subscribed to after it finished.
	_, last, _ := postJob(t, ts, spec(jobs))
	waitState(t, m, last.ID, "done")
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + last.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var replayed []int
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e struct {
			Kind      string `json:"kind"`
			Iteration int    `json:"iteration"`
		}
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatalf("frame %q: %v", data, err)
		}
		if e.Kind == events.TrianglesFound.String() {
			replayed = append(replayed, e.Iteration)
		}
		if e.Kind != "" {
			frames++ // the closing done frame carries a status, not an event
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The run layer adds an event or two of its own after the runner's.
	if frames != 256 || len(replayed) < 250 {
		t.Fatalf("late subscriber replayed %d events, %d of them the runner's; want the ring's 256", frames, len(replayed))
	}
	for i, it := range replayed {
		if want := chattyEvents - len(replayed) + i; it != want {
			t.Fatalf("replayed event %d is number %d, want %d (the last ones, in order)", i, it, want)
		}
	}
}
