package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/server"

	_ "github.com/optlab/opt/internal/core" // registers "OPT"
)

// everySpecKey is a job spec carrying every key optd accepts, each with a
// non-default value (README lists the same keys).
const everySpecKey = `{"store":"g","algorithm":"OPT","timeout":"30s","model":"vertex","threads":2,
	"memory_pages":9,"memory_fraction":0.5,"queue_depth":4,"collect_iter_stats":true,
	"codec":"raw","backend":"portable","shard_grid":3,"shard_i":1,"shard_j":2}`

// keysOf returns the sorted top-level keys of a JSON object.
func keysOf(t *testing.T, raw []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSpecWireGolden pins the job-spec wire format to engine.Options' JSON
// tags: the document with every accepted key decodes strictly to the
// expected options and re-encodes to exactly that key set.
func TestSpecWireGolden(t *testing.T) {
	dec := json.NewDecoder(strings.NewReader(everySpecKey))
	dec.DisallowUnknownFields()
	var got server.Spec
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := server.Spec{Store: "g", Algorithm: "OPT", Timeout: "30s", Options: engine.Options{
		Model: engine.ModelVertex, Threads: 2, MemoryPages: 9, MemoryFraction: 0.5, QueueDepth: 4,
		CollectIterStats: true, Codec: "raw", Backend: "portable", ShardGrid: 3, ShardI: 1, ShardJ: 2,
	}}
	// Options holds a func field, so compare through the encoding.
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("decoded spec re-encodes to\n%s\nwant\n%s", gotJSON, wantJSON)
	}
	if got, want := keysOf(t, gotJSON), keysOf(t, []byte(everySpecKey)); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("re-encoded keys %v, want exactly the accepted keys %v", got, want)
	}

	for _, body := range []string{`{"store":"g"}`, `{"store":"g","model":""}`} {
		var spec server.Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil || spec.Model != engine.ModelEdge {
			t.Errorf("%s decodes to model %v, %v; want the edge model", body, spec.Model, err)
		}
	}
}

// TestStrictSpecDecoding: a key the spec does not declare is a 400 naming
// it on every route that takes a spec — a misspelt knob must never run the
// default silently — while the documents real clients send are admitted.
func TestStrictSpecDecoding(t *testing.T) {
	_, ts, _ := jobKinds[1].fixture(t, false, server.Config{})
	cases := []struct {
		path, body string
		code       int
		names      string // substring of the error on a rejection
	}{
		{"/jobs", `{"store":"g","algorithm":"MGT","memory_page":4}`, http.StatusBadRequest, "memory_page"},
		{"/jobs", `{"store":"g","algorithm":"OPT","max_coalesce_pages":8}`, http.StatusBadRequest, "max_coalesce_pages"},
		{"/jobs", `{"store":"g","algorithm":"OPT","prefetch_depth":2}`, http.StatusBadRequest, "prefetch_depth"},
		{"/jobs", `{"store":"g","algorithm":"OPT","model":"diagonal"}`, http.StatusBadRequest, "diagonal"},
		{"/dist/jobs", `{"store":"g","gird":2}`, http.StatusBadRequest, "gird"},
		{"/tasks", `{"id":"t","grid":1,"store":"g","shard":1}`, http.StatusBadRequest, "shard"},
		// benchmark/client.go's jobSpec and distSpec, and the CI smoke bodies.
		{"/jobs", `{"store":"g","algorithm":"OPT","threads":1,"memory_fraction":0.2}`, http.StatusAccepted, ""},
		{"/jobs", `{"store":"g","algorithm":"OPT","threads":2}`, http.StatusAccepted, ""},
		{"/dist/jobs", `{"store":"g","grid":2,"memory_pages":40}`, http.StatusAccepted, ""},
		{"/dist/jobs", `{"store":"g","grid":4}`, http.StatusAccepted, ""},
	}
	for _, tc := range cases {
		code, raw := call(t, ts, http.MethodPost, tc.path, json.RawMessage(tc.body))
		if code != tc.code || !strings.Contains(string(raw), tc.names) {
			t.Errorf("POST %s %s = %d %s, want %d naming %s", tc.path, tc.body, code, raw, tc.code, tc.names)
		}
	}
}

// TestIterStatsWireNames: iter_stats follows the snake_case naming of the
// rest of a job status — no Go field name reaches the wire.
func TestIterStatsWireNames(t *testing.T) {
	_, ts, _ := jobKinds[0].fixture(t, false, server.Config{})
	st, _ := callStatus(t, ts, http.MethodPost, "/jobs",
		json.RawMessage(`{"store":"g","algorithm":"OPT","memory_pages":8,"collect_iter_stats":true}`), http.StatusAccepted)
	_, done := follow(t, ts, "/jobs/"+st.ID+"/events", "")
	if len(done) != 1 {
		t.Fatalf("got %d done frames, want 1", len(done))
	}
	var doc struct {
		Result struct {
			IterStats []json.RawMessage `json:"iter_stats"`
		} `json:"result"`
	}
	if err := json.Unmarshal(done[0], &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Result.IterStats) == 0 {
		t.Fatalf("no iter_stats in %s", done[0])
	}
	want := "elapsed_ns,external_ns,external_reqs,index,internal_ns,internal_pages,load_ns,reused_pages"
	if got := strings.Join(keysOf(t, doc.Result.IterStats[0]), ","); got != want {
		t.Errorf("iter_stats keys %s, want %s", got, want)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if strings.IndexFunc(k, unicode.IsUpper) >= 0 {
					t.Errorf("status carries the upper-case key %q", k)
				}
				walk(child)
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	var whole any
	if err := json.Unmarshal(done[0], &whole); err != nil {
		t.Fatal(err)
	}
	walk(whole)
}

// eventFedKeys returns the metrics keys some event kind feeds: a collector
// that saw one event of every kind has exactly those keys non-zero.
func eventFedKeys(t *testing.T) map[string]bool {
	t.Helper()
	mx := metrics.NewCollector()
	for _, k := range []events.Kind{
		events.RunStart, events.RunEnd, events.IterationStart, events.IterationEnd,
		events.PagesRead, events.PagesWritten, events.TrianglesFound, events.Morph,
		events.CoalescedRead, events.PrefetchHit, events.PrefetchWasted, events.SubmittedBatch,
		events.RingDepth, events.DirectFallback, events.ShardDispatched, events.ShardRetried,
		events.ShardMerged, events.TaskDone,
	} {
		mx.Event(events.Event{Kind: k, N: 1, Elapsed: 1})
	}
	raw, err := json.Marshal(mx.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	fed := map[string]bool{}
	for k, v := range snap {
		if v != 0 {
			fed[k] = true
		}
	}
	return fed
}

// TestJobMetricsMatchResult pins a finished job's "metrics" object to the
// one instrumentation path: every key it carries is fed by an event kind,
// and every key it shares with "result" holds the result's value. OPT is
// the headline runner and CC-Seq writes pages, so between them pages_read,
// pages_written and triangles are all non-zero; a cache hit serves the
// same document.
func TestJobMetricsMatchResult(t *testing.T) {
	fed := eventFedKeys(t)
	g := graph.Complete(30)
	want := graph.CountTrianglesReference(g)
	path := buildStore(t, g, 128)
	m := server.New(server.Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(server.NewHandler(m))
	defer ts.Close()
	defer m.Drain(5 * time.Second)

	for _, algo := range []string{"OPT", "CC-Seq"} {
		t.Run(algo, func(t *testing.T) {
			spec := server.Spec{Store: path, Algorithm: algo, Options: engine.Options{Threads: 2, MemoryPages: 6}}
			code, posted, _ := postJob(t, ts, spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit = %d, want 202", code)
			}
			waitState(t, m, posted.ID, "done")
			_, got := call(t, ts, http.MethodGet, "/jobs/"+posted.ID, nil)
			code, hit := call(t, ts, http.MethodPost, "/jobs", spec)
			if code != http.StatusOK {
				t.Fatalf("identical resubmit = %d, want 200 (cache hit): %s", code, hit)
			}
			for what, raw := range map[string][]byte{"GET": got, "cache hit": hit} {
				var doc struct {
					Metrics map[string]int64           `json:"metrics"`
					Result  map[string]json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatalf("%s: %v in %s", what, err, raw)
				}
				shared := map[string]bool{}
				for k, v := range doc.Metrics {
					if !fed[k] {
						t.Errorf("%s: metrics key %q = %d is fed by no event kind", what, k, v)
					}
					r, ok := doc.Result[k]
					if !ok {
						continue
					}
					shared[k] = true
					var rv int64
					if err := json.Unmarshal(r, &rv); err != nil || rv != v {
						t.Errorf("%s: metrics %q = %d, result %q = %s", what, k, v, k, r)
					}
				}
				for _, k := range []string{"pages_read", "pages_written", "triangles"} {
					if !shared[k] {
						t.Errorf("%s: key %q missing from metrics or result in %s", what, k, raw)
					}
				}
				if doc.Metrics["triangles"] != want || doc.Metrics["pages_read"] == 0 {
					t.Errorf("%s: metrics %v, want %d triangles and pages read", what, doc.Metrics, want)
				}
				if algo == "CC-Seq" && doc.Metrics["pages_written"] == 0 {
					t.Errorf("%s: CC-Seq wrote no pages: %v", what, doc.Metrics)
				}
			}
		})
	}
}
