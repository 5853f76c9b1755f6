// Distributed-layer serving tests: the agent /tasks endpoint, distributed
// admission (validation, default agents, the race against Drain). The
// /dist/jobs lifecycle itself is TestJobLifecycle's, next to the local one.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/server"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// buildDistStore writes g to a store file and returns (path, digest).
func buildDistStore(t *testing.T, g *graph.Graph) (string, string) {
	t.Helper()
	path := buildStore(t, g, 128)
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, cluster.DigestOf(st).Sum()
}

// newAgent starts one agent optd over HTTP with the store registered as
// "g", torn down (server first, then drain) at test end.
func newAgent(t *testing.T, storePath string) (*httptest.Server, *server.Manager) {
	t.Helper()
	mgr := server.New(server.Config{Workers: 2, QueueDepth: 16})
	if err := mgr.RegisterStore("g", storePath); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewHandler(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Drain(5 * time.Second)
	})
	return ts, mgr
}

func postTask(t *testing.T, ts *httptest.Server, task cluster.TaskMessage) (int, cluster.TaskResultMessage) {
	t.Helper()
	body, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res cluster.TaskResultMessage
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, res
}

// TestTasksEndpoint drives the agent role over the wire: a valid frame
// executes through the job substrate and answers with the exact per-shard
// count; digest drift and malformed frames are rejected the right way
// (inside the frame vs. as an HTTP error).
func TestTasksEndpoint(t *testing.T) {
	g := graph.Complete(20)
	path, digest := buildDistStore(t, g)
	ts, mgr := newAgent(t, path)

	grid, err := cluster.NewGrid(2, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range grid.Shards() {
		task := cluster.TaskMessage{
			ID: cluster.MakeTaskID("w", s), Job: "w",
			Grid: 2, I: s.I, J: s.J,
			Store: "g", Digest: digest,
		}
		code, res := postTask(t, ts, task)
		if code != http.StatusOK {
			t.Fatalf("shard %+v: status %d", s, code)
		}
		if res.Err != "" {
			t.Fatalf("shard %+v: frame error %q", s, res.Err)
		}
		if res.ID != task.ID {
			t.Fatalf("shard %+v: result id %q", s, res.ID)
		}
		if ref := grid.CountShardRef(g, s.I, s.J); res.Triangles != ref {
			t.Fatalf("shard %+v: %d, oracle %d", s, res.Triangles, ref)
		}
		sum += res.Triangles
	}
	if want := graph.CountTrianglesReference(g); sum != want {
		t.Fatalf("shard sum %d, reference %d", sum, want)
	}

	// Digest drift: an execution failure inside the frame, not an HTTP
	// error — another agent may hold the right build.
	code, res := postTask(t, ts, cluster.TaskMessage{
		ID: "w/0-0", Job: "w", Grid: 1, Store: "g", Digest: "0000000000000000",
	})
	if code != http.StatusOK || res.Err == "" {
		t.Fatalf("digest drift: status %d, frame err %q; want 200 + in-frame error", code, res.Err)
	}

	// Malformed frames and unknown stores are admission failures.
	if code, _ := postTask(t, ts, cluster.TaskMessage{ID: "w/1-0", Job: "w", Grid: 2, I: 1, J: 0, Store: "g"}); code != http.StatusBadRequest {
		t.Fatalf("inverted shard: status %d, want 400", code)
	}
	if code, _ := postTask(t, ts, cluster.TaskMessage{ID: "w/0-0", Job: "w", Grid: 1, Store: "nope"}); code != http.StatusBadRequest {
		t.Fatalf("unknown store: status %d, want 400", code)
	}

	// The substrate's result cache serves a re-dispatched twin: same task
	// again must hit the digest cache.
	before := mgr.Stats().CacheHits
	if code, _ := postTask(t, ts, cluster.TaskMessage{
		ID: cluster.MakeTaskID("w", cluster.Shard{I: 0, J: 1}), Job: "w",
		Grid: 2, I: 0, J: 1, Store: "g", Digest: digest,
	}); code != http.StatusOK {
		t.Fatalf("re-dispatch: status %d", code)
	}
	if mgr.Stats().CacheHits == before {
		t.Fatal("re-dispatched twin missed the result cache")
	}
}

// TestSubmitDistValidation covers the admission failures of the
// distributed submit path.
func TestSubmitDistValidation(t *testing.T) {
	g := graph.Complete(10)
	path, _ := buildDistStore(t, g)
	mgr := server.New(server.Config{})
	t.Cleanup(func() { mgr.Drain(time.Second) })
	if err := mgr.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	cases := []server.DistSpec{
		{Store: "g"}, // no agents, no default fleet
		{Store: "g", Agents: []string{"http://a"}, Grid: -1},     // bad grid
		{Store: "nope", Agents: []string{"http://a"}},            // unknown store
		{Store: "g", Agents: []string{"http://a"}, Timeout: "x"}, // bad duration
		{Store: "g", Agents: []string{"http://a"}, RetryBackoff: "-1s"},
		{Store: "g", Agents: []string{"http://a"}, StragglerAfter: "zzz"},
	}
	for i, spec := range cases {
		if _, err := mgr.SubmitDist(spec); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
}

// TestDistDefaultAgents: a spec naming no agents falls back to the
// manager's configured fleet (the optd -agents flag).
func TestDistDefaultAgents(t *testing.T) {
	g := graph.Complete(15)
	want := graph.CountTrianglesReference(g)
	path, _ := buildDistStore(t, g)
	agent, _ := newAgent(t, path)

	mgr := server.New(server.Config{DefaultAgents: []string{agent.URL}})
	t.Cleanup(func() { mgr.Drain(5 * time.Second) })
	if err := mgr.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	job, err := mgr.SubmitDist(server.DistSpec{Store: "g", Grid: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	rep, err := job.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triangles != want {
		t.Fatalf("merged %d, want %d", rep.Triangles, want)
	}
}

// TestDistJobsShareAgentConnections: the daemon dials its agents through
// one client, so a stream of distributed jobs reuses a handful of
// connections — with a client per job every job left its own open until
// the idle timeout, and a busy front grew by a goroutine pair and two
// buffers per task on each side.
func TestDistJobsShareAgentConnections(t *testing.T) {
	g := graph.Complete(15)
	want := graph.CountTrianglesReference(g)
	path, _ := buildDistStore(t, g)
	mgrAgent := server.New(server.Config{Workers: 2, QueueDepth: 16})
	if err := mgrAgent.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	var dialed atomic.Int64
	agent := httptest.NewUnstartedServer(server.NewHandler(mgrAgent))
	agent.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	agent.Start()
	t.Cleanup(func() {
		agent.Close()
		mgrAgent.Drain(5 * time.Second)
	})

	mgr := server.New(server.Config{DefaultAgents: []string{agent.URL}})
	t.Cleanup(func() { mgr.Drain(5 * time.Second) })
	if err := mgr.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		job, err := mgr.SubmitDist(server.DistSpec{Store: "g", Grid: 2, MemoryPages: 8 + i})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if rep, err := job.Report(); err != nil || rep.Triangles != want {
			t.Fatalf("job %d: merged %+v, %v; want %d triangles", i, rep, err, want)
		}
	}
	// A grid-2 job runs its three tasks concurrently: a few connections, not
	// a few per job.
	if n := dialed.Load(); n > 6 {
		t.Fatalf("%d distributed jobs dialed the agent %d times, want a handful of reused connections", jobs, n)
	}
}

// TestDistSubmitRacesDrain hammers distributed submits against Drain. The
// admission critical section registers the coordinator goroutine before
// Drain can observe the table, so when Drain returns every admitted job is
// terminal, every later submit is refused, and no goroutine is left.
func TestDistSubmitRacesDrain(t *testing.T) {
	path, _ := buildDistStore(t, graph.Complete(10))
	for round := 0; round < 20; round++ {
		baseline := runtime.NumGoroutine()
		mgr := server.New(server.Config{
			Dispatcher: cluster.DispatchFunc(func(ctx context.Context, agent string, task cluster.TaskMessage) (cluster.TaskResultMessage, error) {
				<-ctx.Done() // a task only ever ends by the forced drain
				return cluster.TaskResultMessage{}, ctx.Err()
			}),
			DefaultAgents: []string{"a"},
		})
		if err := mgr.RegisterStore("g", path); err != nil {
			t.Fatal(err)
		}
		const submitters = 8
		var wg sync.WaitGroup
		admitted := make([][]*server.Job, submitters)
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for {
					job, err := mgr.SubmitDist(server.DistSpec{Store: "g", Grid: 2})
					if errors.Is(err, server.ErrDraining) {
						return
					}
					if err != nil {
						t.Errorf("SubmitDist: %v", err)
						return
					}
					admitted[i] = append(admitted[i], job)
				}
			}(i)
		}
		close(start)
		mgr.Drain(time.Millisecond)
		// Checked before the submitters are joined: whatever Drain admitted
		// it has already finished.
		live := 0
		for _, j := range mgr.Jobs() {
			if !j.State().Terminal() {
				live++
			}
		}
		if live != 0 {
			t.Fatalf("round %d: %d admitted jobs still live after Drain returned", round, live)
		}
		wg.Wait()
		for _, jobs := range admitted {
			for _, j := range jobs {
				if !j.State().Terminal() {
					t.Fatalf("round %d: job %s admitted but %v after Drain", round, j.ID, j.State())
				}
			}
		}
		testutil.WaitGoroutines(t, baseline, "distributed submits racing drain")
	}
}
