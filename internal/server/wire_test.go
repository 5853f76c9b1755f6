package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"unicode"

	"github.com/optlab/opt/internal/engine"
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
