package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The optd wire shapes the client reads. They are declared here, not
// imported from internal/server, so the benchmark sees exactly what any
// HTTP client sees.
type jobSpec struct {
	Store          string  `json:"store"`
	Algorithm      string  `json:"algorithm"`
	Threads        int     `json:"threads,omitempty"`
	MemoryFraction float64 `json:"memory_fraction,omitempty"`
}

type distSpec struct {
	Store       string `json:"store"`
	Grid        int    `json:"grid"`
	MemoryPages int    `json:"memory_pages"`
}

type taskResult struct {
	ID        string `json:"id"`
	Triangles int64  `json:"triangles"`
	Report    struct {
		PagesRead int64  `json:"pages_read"`
		ElapsedNS int64  `json:"elapsed_ns"`
		Agent     string `json:"agent"`
	} `json:"report"`
}

// jobStatus covers both the local (result) and the distributed (report)
// status documents.
type jobStatus struct {
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
		Triangles  int64        `json:"triangles"`
		Tasks      int          `json:"tasks"`
		Retries    int          `json:"retries"`
		Stragglers int          `json:"stragglers"`
		Duplicates int          `json:"duplicates"`
		Failed     []string     `json:"failed"`
		ElapsedNS  int64        `json:"elapsed_ns"`
		PerTask    []taskResult `json:"per_task"`
	} `json:"report"`
}

type progressFrame struct {
	Kind      string `json:"kind"`
	Iteration int    `json:"iteration"`
	N         int64  `json:"n"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// shardEvent is a shard-dispatched / shard-merged progress frame stamped
// on receipt; the pair brackets one task as the client saw it.
type shardEvent struct {
	kind string
	task int
	at   time.Time
}

// jobOutcome is what one closed-loop op observed.
type jobOutcome struct {
	op        serveOp
	sent      time.Time // POST written
	submitted time.Time // POST response read
	done      time.Time // terminal state seen: cached response or "done" frame
	status    jobStatus
	shards    []shardEvent
	rejected  bool // 429
	err       error
}

func (o *jobOutcome) latency() time.Duration { return o.done.Sub(o.sent) }

// opTimeout bounds one op (library call, job, or child process); an op
// that exceeds it counts as failed.
const opTimeout = 30 * time.Second

// jobClient is one closed-loop client: one connection, one job at a time.
type jobClient struct {
	e    *env
	base string // front daemon URL
	http *http.Client
}

func newJobClient(e *env) *jobClient {
	return &jobClient{
		e:    e,
		base: e.fleet.front.url,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
}

func (c *jobClient) close() { c.http.CloseIdleConnections() }

// body renders the request of op. A miss job and its later repeat render
// identically, so the repeat hits the result cache; every distributed job
// asks for a different budget above the store size, so agents' task caches
// are bypassed and all tasks do the same work.
func (c *jobClient) body(op serveOp) (path string, body []byte, err error) {
	store := storeName(c.e.w.codecs[op.Store])
	if op.Kind == opDist {
		body, err = json.Marshal(distSpec{Store: store, Grid: 2, MemoryPages: c.e.stores[op.Store].NumPages() + 1 + op.Unique})
		return "/dist/jobs", body, err
	}
	body, err = json.Marshal(jobSpec{
		Store: store, Algorithm: "OPT", Threads: 1,
		MemoryFraction: jobMemoryFraction + float64(op.Unique)*fractionStep,
	})
	return "/jobs", body, err
}

// run submits op and waits for its terminal state: the POST response for a
// cache hit, otherwise the "done" frame of the job's event stream.
func (c *jobClient) run(ctx context.Context, op serveOp) jobOutcome {
	out := jobOutcome{op: op}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	path, body, err := c.body(op)
	if err != nil {
		out.err = err
		return out
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	out.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		out.done, out.err = time.Now(), err
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.submitted = time.Now()
	out.done = out.submitted
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		out.rejected = resp.StatusCode == http.StatusTooManyRequests
		out.err = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
		return out
	}
	if err := json.Unmarshal(raw, &out.status); err != nil {
		out.err = fmt.Errorf("POST %s: %w", path, err)
		return out
	}
	if resp.StatusCode == http.StatusOK {
		return out // served from the result cache, already terminal
	}
	out.err = c.follow(ctx, path+"/"+out.status.ID+"/events", &out)
	out.done = time.Now()
	return out
}

// follow reads the job's server-sent events until the "done" frame.
func (c *jobClient) follow(ctx context.Context, path string, out *jobOutcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := []byte(line[len("data: "):])
			if event == "done" {
				if err := json.Unmarshal(data, &out.status); err != nil {
					return fmt.Errorf("done frame: %w", err)
				}
				_, _ = io.Copy(io.Discard, resp.Body) // reach EOF so the connection is reused
				return nil
			}
			var p progressFrame
			if json.Unmarshal(data, &p) == nil && strings.HasPrefix(p.Kind, "shard-") {
				out.shards = append(out.shards, shardEvent{kind: p.Kind, task: p.Iteration, at: time.Now()})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("GET %s: stream ended without a done frame", path)
}

// triangles returns the count the job reported, whichever kind it was.
func (s *jobStatus) triangles() (int64, bool) {
	switch {
	case s.Result != nil:
		return s.Result.Triangles, true
	case s.Report != nil:
		return s.Report.Triangles, true
	}
	return 0, false
}

// check reports why the outcome counts as failed, or nil.
func (o *jobOutcome) check(oracle int64) error {
	if o.err != nil {
		return o.err
	}
	if o.status.State != "done" {
		return fmt.Errorf("job %s ended %q: %s", o.status.ID, o.status.State, o.status.Error)
	}
	if o.op.Kind == opHit && !o.status.Cached {
		return fmt.Errorf("job %s: exact repeat was not served from the result cache", o.status.ID)
	}
	n, ok := o.status.triangles()
	if !ok {
		return fmt.Errorf("job %s carries no result", o.status.ID)
	}
	if n != oracle {
		return fmt.Errorf("job %s counted %d triangles, oracle %d", o.status.ID, n, oracle)
	}
	return nil
}
