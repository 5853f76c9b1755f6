package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/storage"
	"github.com/optlab/opt/internal/testutil"
)

// TestCancelJobWaitingForBudget DELETEs a local job that a worker has taken
// up but that still waits for its pages, the whole budget being held: the
// job's run context must reach PageBudget.Acquire, so the job ends
// canceled at once, having taken no page.
func TestCancelJobWaitingForBudget(t *testing.T) {
	testutil.LeakCheck(t, "job cancelled on the page budget")
	path := filepath.Join(t.TempDir(), "g.optstore")
	if _, err := storage.BuildFile(path, graph.Complete(10), 128); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, TotalPages: 8})
	ts := httptest.NewServer(NewHandler(m))
	defer func() {
		ts.Close()
		m.Drain(5 * time.Second)
	}()
	if err := m.Budget().Acquire(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	defer m.Budget().Release(8)

	j, err := m.Submit(Spec{Store: path, Algorithm: cluster.ShardRunnerName, Options: engine.Options{MemoryPages: 8}})
	if err != nil {
		t.Fatal(err)
	}
	// The worker hands the job its cancel func just before the budget wait.
	for begun := false; !begun; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		begun = j.cancel != nil
		j.mu.Unlock()
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s still %v 5 s after DELETE: its budget wait ignored the cancel", j.ID, j.State())
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state = %v, want canceled", st)
	}
	if _, err := j.Result(); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "page budget") {
		t.Fatalf("job error = %v, want context.Canceled from the budget wait", err)
	}
	if got := m.Budget().InUse(); got != 8 {
		t.Fatalf("budget in use %d, want the 8 pages this test holds", got)
	}
}

// TestCancelDistJobDuringAgentRequest cancels a distributed job while its
// one task's HTTP request is in flight to an agent that answers only when
// the request goes away: the job's context must reach the request, so the
// agent sees it cancelled and the job ends canceled.
func TestCancelDistJobDuringAgentRequest(t *testing.T) {
	testutil.LeakCheck(t, "dist job cancelled mid-request")
	path := filepath.Join(t.TempDir(), "g.optstore")
	if _, err := storage.BuildFile(path, graph.Complete(10), 128); err != nil {
		t.Fatal(err)
	}
	inFlight, gone := make(chan struct{}, 8), make(chan struct{}, 8)
	release := make(chan struct{})
	agent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// With the task read, the server watches the connection, and a
		// cancelled request closes it.
		_, _ = io.Copy(io.Discard, r.Body)
		inFlight <- struct{}{}
		select {
		case <-r.Context().Done():
			gone <- struct{}{}
		case <-release:
		}
	}))
	m := New(Config{DefaultAgents: []string{agent.URL}})
	defer func() {
		close(release)
		agent.Close()
		m.Drain(5 * time.Second)
	}()
	if err := m.RegisterStore("g", path); err != nil {
		t.Fatal(err)
	}
	j, err := m.SubmitDist(DistSpec{Store: "g", Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-inFlight
	j.Cancel()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s still %v 5 s after the cancel", j.ID, j.State())
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state = %v, want canceled", st)
	}
	if _, err := j.Report(); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the agent's request was never cancelled")
	}
}
