// The job lifecycle is one state machine behind two API mounts, so it is
// tested once: every scenario of TestJobLifecycle runs over a local job
// (/jobs) and a distributed job (/dist/jobs), and TestWireCompat pins the
// documents both mounts serve against what benchmark/client.go reads.
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
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/server"
	"github.com/optlab/opt/internal/testutil"
)

// wireTask and wireStatus carry exactly the fields benchmark/client.go
// reads from a status document of either kind (its taskResult and
// jobStatus), so a renamed or dropped field fails here, not at bench time.
type wireTask struct {
	ID        string `json:"id"`
	Triangles int64  `json:"triangles"`
	Report    struct {
		PagesRead int64  `json:"pages_read"`
		ElapsedNS int64  `json:"elapsed_ns"`
		Agent     string `json:"agent"`
	} `json:"report"`
}

type wireStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Cached   bool       `json:"cached"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Result   *struct {
		Triangles  int64 `json:"triangles"`
		Iterations int   `json:"iterations"`
		ElapsedNS  int64 `json:"elapsed_ns"`
		PagesRead  int64 `json:"pages_read"`
	} `json:"result"`
	Report *struct {
		Triangles  int64      `json:"triangles"`
		Tasks      int        `json:"tasks"`
		Retries    int        `json:"retries"`
		Stragglers int        `json:"stragglers"`
		Duplicates int        `json:"duplicates"`
		Failed     []string   `json:"failed"`
		ElapsedNS  int64      `json:"elapsed_ns"`
		PerTask    []wireTask `json:"per_task"`
	} `json:"report"`
}

// triangles is the count the document reports, whichever kind it is.
func (s wireStatus) triangles() int64 {
	switch {
	case s.Result != nil:
		return s.Result.Triangles
	case s.Report != nil:
		return s.Report.Triangles
	}
	return -1
}

// call performs one API request and returns the status code and raw body.
func call(t *testing.T, ts *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// callStatus is call for the endpoints that answer with a status document.
func callStatus(t *testing.T, ts *httptest.Server, method, path string, body any, wantCode int) (wireStatus, []byte) {
	t.Helper()
	code, raw := call(t, ts, method, path, body)
	if code != wantCode {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, code, wantCode, raw)
	}
	var st wireStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("%s %s: %v in %s", method, path, err, raw)
	}
	return st, raw
}

// follow reads a job's event stream to EOF — or, when until is not empty,
// up to the first progress frame of that kind — and returns how often each
// progress kind appeared plus the raw "done" frames. A stream still open
// after 10 s fails the test.
func follow(t *testing.T, ts *httptest.Server, path, until string) (kinds map[string]int, done [][]byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	kinds = map[string]int{}
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			if event == "done" {
				done = append(done, data)
				continue
			}
			var p struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal(data, &p); err != nil {
				t.Fatalf("progress frame %q: %v", data, err)
			}
			kinds[p.Kind]++
			if p.Kind == until {
				return kinds, done
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kinds, done
}

// jobKind is one of the two fixtures TestJobLifecycle runs every scenario
// over. A fixture starts a manager serving graph g as store "g"; with park
// set, its jobs make partial progress worth one triangle and then block
// until cancelled, otherwise they run to completion.
type jobKind struct {
	name   string
	mount  string // "/jobs" or "/dist/jobs"
	prefix string // id prefix
	start  func(t *testing.T, path string, park bool, cfg server.Config) *server.Manager
	// body renders a submit request; timeout is the spec's, "" for none.
	body func(timeout string, park bool) any
	// partial returns the triangles a cancelled job kept and its error.
	partial func(j *server.Job) (int64, error)
	// counted is the progress kind that shows a parked job's one triangle
	// is part of its outcome, so cancelling keeps it; "" when the runner
	// returns the triangle with its partial result itself.
	counted string
	// finished checks the kind's own part of a completed job: progress
	// kinds seen on the stream and the final status document.
	finished func(t *testing.T, kinds map[string]int, raw []byte)
}

var jobKinds = []jobKind{
	{
		name: "local", mount: "/jobs", prefix: "j",
		start: func(t *testing.T, path string, park bool, cfg server.Config) *server.Manager {
			cfg.Workers, cfg.QueueDepth = 1, 2
			return server.New(cfg)
		},
		body: func(timeout string, park bool) any {
			spec := server.Spec{Store: "g", Algorithm: "MGT", Timeout: timeout}
			if park {
				spec.Algorithm = "test-blocking"
			}
			return spec
		},
		partial: func(j *server.Job) (int64, error) {
			res, err := j.Result()
			if res == nil {
				return -1, err
			}
			return res.Triangles, err
		},
		finished: func(t *testing.T, kinds map[string]int, raw []byte) {
			if kinds["run-start"] != 1 || kinds["run-end"] != 1 {
				t.Errorf("progress kinds %v, want one run-start and one run-end", kinds)
			}
			var st server.Status
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			if st.Metrics == nil || st.Metrics.PagesRead == 0 || st.Metrics.PagesRead != st.Result.PagesRead {
				t.Errorf("metrics %+v, want the per-job snapshot with the result's %d pages read", st.Metrics, st.Result.PagesRead)
			}
			if st.Algorithm != "MGT" || st.Pages == 0 || st.Spec.Store != "g" {
				t.Errorf("status %+v, want the resolved algorithm, budget and the spec echoed", st)
			}
		},
	},
	{
		name: "dist", mount: "/dist/jobs", prefix: "d",
		start: func(t *testing.T, path string, park bool, cfg server.Config) *server.Manager {
			if park {
				// Shard (0,0) answers at once, every other shard blocks until
				// the coordinator gives up on it.
				cfg.Dispatcher = cluster.DispatchFunc(func(ctx context.Context, agent string, task cluster.TaskMessage) (cluster.TaskResultMessage, error) {
					if task.I == 0 && task.J == 0 {
						return cluster.TaskResultMessage{ID: task.ID, Attempt: task.Attempt, Triangles: 1}, nil
					}
					<-ctx.Done()
					return cluster.TaskResultMessage{}, ctx.Err()
				})
				cfg.DefaultAgents = []string{"a", "b"}
			} else {
				a1, _ := newAgent(t, path)
				a2, _ := newAgent(t, path)
				cfg.DefaultAgents = []string{a1.URL, a2.URL}
			}
			return server.New(cfg)
		},
		body: func(timeout string, park bool) any {
			return server.DistSpec{Store: "g", Grid: 2, Timeout: timeout}
		},
		partial: func(j *server.Job) (int64, error) {
			rep, err := j.Report()
			if rep == nil {
				return -1, err
			}
			return rep.Triangles, err
		},
		// Shard (0,0) answers at once, but its triangle joins the report
		// only when the coordinator merges it.
		counted: "shard-merged",
		finished: func(t *testing.T, kinds map[string]int, raw []byte) {
			if kinds["shard-dispatched"] != 3 || kinds["shard-merged"] != 3 {
				t.Errorf("progress kinds %v, want 3 dispatched + 3 merged for a 2×2 grid", kinds)
			}
			var st server.DistStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			if st.Tasks != 3 || st.Digest == "" || st.Spec.Grid != 2 {
				t.Errorf("status %+v, want 3 tasks, the pinned digest and the spec echoed", st)
			}
			if st.Report.Duplicates != 0 || len(st.Report.Failed) != 0 || st.Report.Dispatched != 3 {
				t.Errorf("clean fleet reported %+v", st.Report)
			}
			if st.Metrics == nil || st.Metrics.ShardsMerged != 3 {
				t.Errorf("metrics %+v, want 3 shards merged", st.Metrics)
			}
		},
	},
}

// fixture starts kind k's manager behind an HTTP server over a K25 store.
// The returned drain is idempotent and also runs at cleanup; the goroutine
// baseline is checked after everything the fixture started is gone.
func (k jobKind) fixture(t *testing.T, park bool, cfg server.Config) (*server.Manager, *httptest.Server, int64) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	// Registered first so it runs last, after agents and manager are down.
	t.Cleanup(func() { testutil.WaitGoroutines(t, baseline, k.name+" lifecycle") })
	g := graph.Complete(25)
	path := buildStore(t, g, 128)
	// Room for every event of a run, so replay assertions never race the
	// bounded ring.
	cfg.EventBuffer = 1 << 14
	m := k.start(t, path, park, cfg)
	if err := m.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		ts.Client().CloseIdleConnections()
		m.Drain(5 * time.Second)
	})
	return m, ts, graph.CountTrianglesReference(g)
}

// submit posts one job of kind k and returns its handle.
func (k jobKind) submit(t *testing.T, m *server.Manager, ts *httptest.Server, timeout string, park bool) *server.Job {
	t.Helper()
	st, _ := callStatus(t, ts, http.MethodPost, k.mount, k.body(timeout, park), http.StatusAccepted)
	if !strings.HasPrefix(st.ID, k.prefix) {
		t.Fatalf("POST %s: id %q, want prefix %q", k.mount, st.ID, k.prefix)
	}
	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in the table", st.ID)
	}
	return j
}

func waitDone(t *testing.T, j *server.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state (state %v)", j.ID, j.State())
	}
}

// wantCanceled asserts the terminal picture every cancellation path shares:
// state canceled, the cause in the error, the partial outcome kept.
func (k jobKind) wantCanceled(t *testing.T, j *server.Job, cause error) {
	t.Helper()
	waitDone(t, j)
	if st := j.State(); st != server.StateCanceled {
		t.Fatalf("state = %v, want canceled", st)
	}
	n, err := k.partial(j)
	if !errors.Is(err, cause) {
		t.Fatalf("job error = %v, want %v", err, cause)
	}
	if n != 1 {
		t.Fatalf("partial outcome kept %d triangles, want the 1 counted before cancellation", n)
	}
}

func TestJobLifecycle(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name+"/submit to done", func(t *testing.T) {
			m, ts, want := k.fixture(t, false, server.Config{})
			j := k.submit(t, m, ts, "", false)
			// Following the live stream doubles as the completion wait.
			kinds, done := follow(t, ts, k.mount+"/"+j.ID+"/events", "")
			if len(done) != 1 {
				t.Fatalf("got %d done frames, want exactly 1 (progress %v)", len(done), kinds)
			}
			var final wireStatus
			if err := json.Unmarshal(done[0], &final); err != nil {
				t.Fatalf("done frame %q: %v", done[0], err)
			}
			if final.State != "done" || final.triangles() != want {
				t.Fatalf("done frame %s, want done with %d triangles", done[0], want)
			}
			st, raw := callStatus(t, ts, http.MethodGet, k.mount+"/"+j.ID, nil, http.StatusOK)
			if st.State != "done" || st.Error != "" || st.triangles() != want {
				t.Fatalf("GET status %s, want done with %d triangles", raw, want)
			}
			if st.Started == nil || st.Finished == nil || st.Finished.Before(*st.Started) || st.Started.Before(st.Created) {
				t.Fatalf("timestamps created %v started %v finished %v out of order", st.Created, st.Started, st.Finished)
			}
			k.finished(t, kinds, raw)

			// The listing of this mount shows the job; the other mount
			// neither lists nor resolves it.
			for _, other := range jobKinds {
				code, raw := call(t, ts, http.MethodGet, other.mount, nil)
				var list []wireStatus
				if err := json.Unmarshal(raw, &list); code != http.StatusOK || err != nil {
					t.Fatalf("GET %s = %d, %v", other.mount, code, err)
				}
				if other.name == k.name {
					if len(list) != 1 || list[0].ID != j.ID {
						t.Fatalf("GET %s = %s, want exactly job %s", other.mount, raw, j.ID)
					}
					continue
				}
				if len(list) != 0 {
					t.Fatalf("GET %s lists %s, want no %s jobs there", other.mount, raw, k.name)
				}
				if code, _ := call(t, ts, http.MethodGet, other.mount+"/"+j.ID, nil); code != http.StatusNotFound {
					t.Fatalf("GET %s/%s = %d, want 404", other.mount, j.ID, code)
				}
			}
		})

		t.Run(k.name+"/delete while running", func(t *testing.T) {
			m, ts, _ := k.fixture(t, true, server.Config{})
			j := k.submit(t, m, ts, "", true)
			waitState(t, m, j.ID, "running")
			if k.counted != "" {
				if kinds, _ := follow(t, ts, k.mount+"/"+j.ID+"/events", k.counted); kinds[k.counted] == 0 {
					t.Fatalf("event stream ended without %s (progress %v)", k.counted, kinds)
				}
			}
			callStatus(t, ts, http.MethodDelete, k.mount+"/"+j.ID, nil, http.StatusAccepted)
			k.wantCanceled(t, j, context.Canceled)
			// Cancelling a terminal job is a no-op, not an error; the
			// document names the cause under "error".
			st, raw := callStatus(t, ts, http.MethodDelete, k.mount+"/"+j.ID, nil, http.StatusAccepted)
			if st.State != "canceled" || !strings.Contains(st.Error, "context canceled") {
				t.Fatalf("re-DELETE = %s, want canceled with the cause", raw)
			}
			requireFields(t, "canceled job", raw, "id", "state", "error", "created", "started", "finished")
			for _, target := range []string{"/" + k.prefix + "999", "/" + k.prefix + "999/events"} {
				if code, _ := call(t, ts, http.MethodGet, k.mount+target, nil); code != http.StatusNotFound {
					t.Errorf("GET %s%s = %d, want 404", k.mount, target, code)
				}
			}
			if code, _ := call(t, ts, http.MethodDelete, k.mount+"/"+k.prefix+"999", nil); code != http.StatusNotFound {
				t.Errorf("DELETE of an unknown job = %d, want 404", code)
			}
		})

		t.Run(k.name+"/spec timeout", func(t *testing.T) {
			m, ts, _ := k.fixture(t, true, server.Config{})
			j := k.submit(t, m, ts, "50ms", true)
			k.wantCanceled(t, j, context.DeadlineExceeded)
		})

		// -job-timeout covers every kind: a spec without a timeout gets the
		// manager's default.
		t.Run(k.name+"/default timeout", func(t *testing.T) {
			m, ts, _ := k.fixture(t, true, server.Config{DefaultTimeout: 50 * time.Millisecond})
			j := k.submit(t, m, ts, "", true)
			k.wantCanceled(t, j, context.DeadlineExceeded)
		})

		t.Run(k.name+"/drain deadline forces cancel", func(t *testing.T) {
			m, ts, _ := k.fixture(t, true, server.Config{})
			j := k.submit(t, m, ts, "", true)
			waitState(t, m, j.ID, "running")
			start := time.Now()
			if forced := m.Drain(100 * time.Millisecond); !forced {
				t.Fatal("drain with a blocked job must report forced cancellation")
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("forced drain took %v, want prompt wind-down after the deadline", d)
			}
			k.wantCanceled(t, j, context.Canceled)
			if code, _ := call(t, ts, http.MethodPost, k.mount, k.body("", true)); code != http.StatusServiceUnavailable {
				t.Fatalf("POST %s after drain = %d, want 503", k.mount, code)
			}
			// Idempotent: a second drain returns immediately without forcing.
			if m.Drain(time.Second) {
				t.Fatal("second drain reported forced")
			}
		})

		t.Run(k.name+"/late subscriber", func(t *testing.T) {
			m, ts, want := k.fixture(t, false, server.Config{})
			j := k.submit(t, m, ts, "", false)
			waitDone(t, j)
			// Attaching after completion replays the bounded history and
			// then sends the one terminal frame.
			kinds, done := follow(t, ts, k.mount+"/"+j.ID+"/events", "")
			if len(done) != 1 {
				t.Fatalf("got %d done frames, want exactly 1", len(done))
			}
			var final wireStatus
			if err := json.Unmarshal(done[0], &final); err != nil || final.State != "done" || final.triangles() != want {
				t.Fatalf("done frame %s (%v), want done with %d triangles", done[0], err, want)
			}
			k.finished(t, kinds, done[0])
		})
	}
}

// requireFields fails unless every dotted path is present in the JSON
// document; a path element followed by [] descends into each array member.
func requireFields(t *testing.T, what string, raw []byte, paths ...string) {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var walk func(v any, path []string) bool
	walk = func(v any, path []string) bool {
		if len(path) == 0 {
			return true
		}
		key, each := strings.CutSuffix(path[0], "[]")
		obj, ok := v.(map[string]any)
		if !ok {
			return false
		}
		child, ok := obj[key]
		if !ok {
			return false
		}
		if !each {
			return walk(child, path[1:])
		}
		items, ok := child.([]any)
		if !ok || len(items) == 0 {
			return false
		}
		for _, it := range items {
			if !walk(it, path[1:]) {
				return false
			}
		}
		return true
	}
	for _, p := range paths {
		if !walk(doc, strings.Split(p, ".")) {
			t.Errorf("%s: field %s missing in %s", what, p, raw)
		}
	}
}

// TestWireCompat pins the documents of POST/GET on both mounts and the SSE
// "done" frame to the fields benchmark/client.go reads: each must be
// present under its name and decode into the client's types.
func TestWireCompat(t *testing.T) {
	envelope := []string{"id", "state", "created", "started", "finished"}
	docs := map[string][]string{
		"local": append([]string{"result.triangles", "result.iterations", "result.elapsed_ns", "result.pages_read"}, envelope...),
		"dist": append([]string{
			"report.triangles", "report.tasks", "report.retries", "report.stragglers", "report.duplicates", "report.elapsed_ns",
			"report.per_task[].id", "report.per_task[].triangles",
			"report.per_task[].report.pages_read", "report.per_task[].report.elapsed_ns", "report.per_task[].report.agent",
		}, envelope...),
	}
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			_, ts, want := k.fixture(t, false, server.Config{})
			_, posted := callStatus(t, ts, http.MethodPost, k.mount, k.body("", false), http.StatusAccepted)
			requireFields(t, "POST "+k.mount, posted, "id", "state", "created")
			var first wireStatus
			if err := json.Unmarshal(posted, &first); err != nil {
				t.Fatal(err)
			}
			_, done := follow(t, ts, k.mount+"/"+first.ID+"/events", "")
			if len(done) != 1 {
				t.Fatalf("got %d done frames, want 1", len(done))
			}
			_, got := callStatus(t, ts, http.MethodGet, k.mount+"/"+first.ID, nil, http.StatusOK)
			for what, raw := range map[string][]byte{"done frame": done[0], "GET " + k.mount + "/{id}": got} {
				requireFields(t, what, raw, docs[k.name]...)
				var st wireStatus
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if st.ID != first.ID || st.State != "done" || st.triangles() != want {
					t.Errorf("%s decodes to %+v, want job %s done with %d triangles", what, st, first.ID, want)
				}
				if st.Report != nil && (len(st.Report.PerTask) != st.Report.Tasks || st.Report.PerTask[0].Report.Agent == "") {
					t.Errorf("%s: per_task %+v, want one stamped entry per task", what, st.Report.PerTask)
				}
			}
			if k.name != "local" {
				return
			}
			// The exact repeat is answered 200 from the result cache with
			// "cached" set and the same result fields.
			hit, raw := callStatus(t, ts, http.MethodPost, k.mount, k.body("", false), http.StatusOK)
			requireFields(t, "cache hit", raw, append([]string{"cached"}, docs[k.name]...)...)
			if !hit.Cached || hit.State != "done" || hit.triangles() != want {
				t.Errorf("cache hit decodes to %+v", hit)
			}
		})
	}
}
