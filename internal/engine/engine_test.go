package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// fakeRunner records the options it was dispatched with and returns a
// canned result/error pair.
type fakeRunner struct {
	mu     sync.Mutex
	got    Options
	called int
	res    *Result
	err    error
}

func (f *fakeRunner) Run(ctx context.Context, st *storage.Store, dev ssd.PageDevice, opts Options) (*Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.got = opts
	f.called++
	return f.res, f.err
}

// recordingSink collects events in order.
type recordingSink struct {
	mu  sync.Mutex
	evs []events.Event
}

func (s *recordingSink) Event(e events.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, e)
	s.mu.Unlock()
}

func TestBudget(t *testing.T) {
	st := &storage.Store{NumPages: 100}
	cases := []struct {
		opts Options
		want int
	}{
		{Options{MemoryPages: 7}, 7},
		{Options{MemoryPages: 7, MemoryFraction: 0.5}, 7}, // explicit pages win
		{Options{MemoryFraction: 0.5}, 50},
		{Options{}, 15},                     // paper default 15%
		{Options{MemoryFraction: 0.001}, 2}, // floor of 2
	}
	for _, tc := range cases {
		if got := tc.opts.Budget(st); got != tc.want {
			t.Errorf("Budget(%+v) = %d, want %d", tc.opts, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	full := Info{Name: "full", ListsTriangles: true, Models: true, Parallel: true}
	counting := Info{Name: "counting"}
	sharded := Info{Name: "sharded", Shards: true}
	cb := func(u, v uint32, ws []uint32) {}
	cases := []struct {
		name    string
		opts    Options
		info    Info
		wantErr bool
	}{
		{"zero value", Options{}, full, false},
		{"negative threads", Options{Threads: -1}, full, true},
		{"negative queue depth", Options{QueueDepth: -1}, full, true},
		{"negative memory pages", Options{MemoryPages: -1}, full, true},
		{"fraction above one", Options{MemoryFraction: 1.5}, full, true},
		{"negative fraction", Options{MemoryFraction: -0.1}, full, true},
		{"NaN fraction", Options{MemoryFraction: math.NaN()}, full, true},
		{"fraction of exactly one", Options{MemoryFraction: 1}, full, false},
		{"triangles from counting-only method", Options{OnTriangles: cb}, counting, true},
		{"triangles from listing method", Options{OnTriangles: cb}, full, false},
		{"model on model-less method", Options{Model: ModelVertex}, counting, true},
		{"model on modelled method", Options{Model: ModelVertex}, full, false},
		{"known codec", Options{Codec: "deltavarint"}, full, false},
		{"unknown codec", Options{Codec: "zstd"}, full, true},
		{"shard grid on sharded method", Options{ShardGrid: 4, ShardI: 1, ShardJ: 3}, sharded, false},
		{"shard grid on unsharded method", Options{ShardGrid: 4}, full, true},
		{"shard i without grid", Options{ShardI: 1, ShardJ: 1}, sharded, true},
		{"negative shard grid", Options{ShardGrid: -1}, sharded, true},
		{"inverted shard pair", Options{ShardGrid: 4, ShardI: 3, ShardJ: 1}, sharded, true},
		{"shard j at grid", Options{ShardGrid: 4, ShardI: 0, ShardJ: 4}, sharded, true},
		{"negative shard i", Options{ShardGrid: 4, ShardI: -1, ShardJ: 0}, sharded, true},
		{"diagonal shard", Options{ShardGrid: 4, ShardI: 2, ShardJ: 2}, sharded, false},
	}
	for _, tc := range cases {
		err := tc.opts.Validate(tc.info)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidateNamesOffendingField pins the error-message contract: every
// rejection names the offending knob as Options.<Field>, uniformly across
// the original knobs and the PR 3 additions.
func TestValidateNamesOffendingField(t *testing.T) {
	full := Info{Name: "full", ListsTriangles: true, Models: true, Parallel: true}
	counting := Info{Name: "counting"}
	cases := []struct {
		field string
		opts  Options
		info  Info
	}{
		{"Threads", Options{Threads: -1}, full},
		{"QueueDepth", Options{QueueDepth: -1}, full},
		{"MemoryPages", Options{MemoryPages: -1}, full},
		{"MemoryFraction", Options{MemoryFraction: 2}, full},
		{"OnTriangles", Options{OnTriangles: func(u, v uint32, ws []uint32) {}}, counting},
		{"Model", Options{Model: ModelVertex}, counting},
		{"Codec", Options{Codec: "zstd"}, full},
		{"ShardGrid", Options{ShardGrid: 2}, full},
		{"ShardI", Options{ShardI: 1}, Info{Name: "sharded", Shards: true}},
	}
	for _, tc := range cases {
		err := tc.opts.Validate(tc.info)
		if err == nil {
			t.Errorf("%s: invalid options accepted", tc.field)
			continue
		}
		if want := "Options." + tc.field; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.field, err, want)
		}
	}
}

func TestValidateFor(t *testing.T) {
	Register(Info{Name: "test-validatefor"}, &fakeRunner{res: &Result{}})
	if err := ValidateFor("test-validatefor", Options{}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	err := ValidateFor("test-validatefor", Options{Threads: -1})
	if err == nil || !strings.Contains(err.Error(), "Options.Threads") {
		t.Fatalf("ValidateFor = %v, want Options.Threads error", err)
	}
	err = ValidateFor("test-no-such-runner", Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("ValidateFor = %v, want unknown-algorithm error", err)
	}
}

func TestRegistry(t *testing.T) {
	r := &fakeRunner{res: &Result{}}
	Register(Info{Name: "test-registry"}, r)
	got, info, ok := Lookup("test-registry")
	if !ok || got != r || info.Name != "test-registry" {
		t.Fatalf("Lookup = %v, %+v, %v", got, info, ok)
	}
	found := false
	for _, n := range Names() {
		if n == "test-registry" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing test-registry", Names())
	}

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Register(Info{Name: "test-registry"}, r) })
	mustPanic("empty name", func() { Register(Info{}, r) })
	mustPanic("nil runner", func() { Register(Info{Name: "test-nil"}, nil) })
}

func TestRunUnknownAlgorithm(t *testing.T) {
	st := &storage.Store{NumPages: 10}
	res, err := Run(context.Background(), "no-such-algorithm", st, nil, Options{})
	if err == nil || res != nil {
		t.Fatalf("Run = %v, %v; want nil result and error", res, err)
	}
	if !strings.Contains(err.Error(), "unknown algorithm") || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("error %q should name the registered algorithms", err)
	}
}

func TestRunDispatch(t *testing.T) {
	fake := &fakeRunner{res: &Result{Triangles: 42, Iterations: 3}}
	Register(Info{Name: "test-dispatch", ListsTriangles: true}, fake)

	st := &storage.Store{NumPages: 100}
	sink := &recordingSink{}
	res, err := Run(context.Background(), "test-dispatch", st, nil, Options{
		MemoryFraction: 0.5,
		Events:         sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fake.called != 1 {
		t.Fatalf("runner called %d times", fake.called)
	}
	if fake.got.MemoryPages != 50 {
		t.Errorf("runner saw MemoryPages = %d, want resolved budget 50", fake.got.MemoryPages)
	}
	if res.Algorithm != "test-dispatch" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
	if res.Triangles != 42 || res.Iterations != 3 {
		t.Errorf("result %+v not passed through", res)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
	}
	if len(sink.evs) != 2 ||
		sink.evs[0].Kind != events.RunStart ||
		sink.evs[1].Kind != events.RunEnd {
		t.Fatalf("events = %+v, want [RunStart RunEnd]", sink.evs)
	}
	if sink.evs[1].N != 42 || sink.evs[1].Algorithm != "test-dispatch" {
		t.Errorf("RunEnd event = %+v", sink.evs[1])
	}
}

func TestRunValidatesCentrally(t *testing.T) {
	fake := &fakeRunner{res: &Result{}}
	Register(Info{Name: "test-validate"}, fake)
	st := &storage.Store{NumPages: 10}
	cases := []Options{
		{Threads: -1},
		{QueueDepth: -1},
		{MemoryPages: -1},
		{MemoryFraction: 1.5},
		{OnTriangles: func(u, v uint32, ws []uint32) {}}, // counting-only info
		{Model: ModelVertex},                             // model-less info
	}
	for i, opts := range cases {
		if _, err := Run(context.Background(), "test-validate", st, nil, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if fake.called != 0 {
		t.Fatalf("runner reached %d times despite invalid options", fake.called)
	}
}

// TestRunRejectsCodecMismatch pins the Options.Codec contract: a run that
// requires a specific page codec is rejected before dispatch when the store
// was built with a different one (a zero-value Store reports raw).
func TestRunRejectsCodecMismatch(t *testing.T) {
	fake := &fakeRunner{res: &Result{}}
	Register(Info{Name: "test-codec"}, fake)
	st := &storage.Store{NumPages: 10}
	if _, err := Run(context.Background(), "test-codec", st, nil, Options{Codec: storage.CodecRaw}); err != nil {
		t.Fatalf("matching codec rejected: %v", err)
	}
	_, err := Run(context.Background(), "test-codec", st, nil, Options{Codec: storage.CodecDeltaVarint})
	if err == nil || !strings.Contains(err.Error(), "Options.Codec") {
		t.Fatalf("codec mismatch err = %v, want it to name Options.Codec", err)
	}
	if fake.called != 1 {
		t.Fatalf("runner called %d times, want 1 (the matching run only)", fake.called)
	}
}

func TestRunPartialResultOnError(t *testing.T) {
	boom := errors.New("boom")
	fake := &fakeRunner{res: &Result{Triangles: 7, Iterations: 1}, err: boom}
	Register(Info{Name: "test-partial"}, fake)
	st := &storage.Store{NumPages: 10}
	res, err := Run(context.Background(), "test-partial", st, nil, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if res == nil || res.Triangles != 7 {
		t.Fatalf("partial result %+v not passed through", res)
	}
	if res.Algorithm != "test-partial" {
		t.Errorf("partial result Algorithm = %q", res.Algorithm)
	}
}

func TestRunPreCancelled(t *testing.T) {
	fake := &fakeRunner{res: &Result{}}
	Register(Info{Name: "test-cancelled"}, fake)
	st := &storage.Store{NumPages: 10}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, "test-cancelled", st, nil, Options{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Run = %v, %v; want nil result and context.Canceled", res, err)
	}
	if fake.called != 0 {
		t.Fatal("runner dispatched despite cancelled context")
	}
}

func TestRunNilNilRunner(t *testing.T) {
	Register(Info{Name: "test-nilnil"}, &fakeRunner{})
	st := &storage.Store{NumPages: 10}
	if _, err := Run(context.Background(), "test-nilnil", st, nil, Options{}); err == nil {
		t.Fatal("runner returning (nil, nil) must surface an error")
	}
}

// TestParseModel: String and ParseModel are inverses over every model, and
// anything else — the empty string included — is rejected with the one
// message naming the accepted spellings.
func TestParseModel(t *testing.T) {
	for _, m := range []Model{ModelEdge, ModelVertex, ModelMGTInstance} {
		if got, err := ParseModel(m.String()); err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, in := range []string{"", "vertx", "MGT", Model(9).String()} {
		if _, err := ParseModel(in); err == nil || !strings.Contains(err.Error(), "edge, vertex or mgt") {
			t.Errorf("ParseModel(%q) = %v, want an error listing the accepted models", in, err)
		}
	}
}
