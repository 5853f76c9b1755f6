package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got, want := relSpread(xs), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "call", Start: at(10), End: at(90)},
		// Two overlapping children and one sticking out of the parent:
		// they cover [20,50] ∪ [40,60] ∪ [80,90] = 50 ms of "call".
		{ID: 3, Parent: 2, Name: "iter", Start: at(20), End: at(50)},
		{ID: 4, Parent: 2, Name: "iter", Start: at(40), End: at(60)},
		{ID: 5, Parent: 2, Name: "iter", Start: at(80), End: at(120)},
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]selfRow{
		"op":   {Name: "op", Count: 1, Total: at(100), Self: at(20)},
		"call": {Name: "call", Count: 1, Total: at(80), Self: at(30)},
		"iter": {Name: "iter", Count: 3, Total: at(90), Self: at(90)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %+v\nwant %+v", got, want)
	}
}

func deal(seed int64, client, n int) []serveOp {
	s := newScheduler(seed, client, serveClients, 2)
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := deal(7, 0, 200), deal(7, 0, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed dealt different schedules")
	}
	if reflect.DeepEqual(a, deal(8, 0, 200)) {
		t.Error("different seeds dealt the same schedule")
	}
	if reflect.DeepEqual(a, deal(7, 1, 200)) {
		t.Error("the two clients of one seed dealt the same schedule")
	}
	count := map[opKind]int{}
	seen := map[int]bool{}
	for _, op := range a {
		count[op.Kind]++
		switch op.Kind {
		case opHit:
			if !seen[op.Unique] {
				t.Fatalf("hit repeats job %d before it was dealt", op.Unique)
			}
		default:
			if seen[op.Unique] {
				t.Fatalf("job number %d dealt twice", op.Unique)
			}
			seen[op.Unique] = true
		}
	}
	// 60/20/20 per block of ten; at most the very first hit turns into a miss.
	if count[opDist] != 40 || count[opHit] < 39 || count[opHit] > 40 {
		t.Errorf("mix over 200 ops = %v, want 120/40/40", count)
	}
}

var testPaths paths

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"github.com/optlab/opt/cmd/optd", "github.com/optlab/opt/cmd/opttri")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building optd and opttri: %v\n%s", err, out)
		os.Exit(1)
	}
	testPaths = paths{
		optd: filepath.Join(dir, "optd"), opttri: filepath.Join(dir, "opttri"),
		out: dir, work: filepath.Join(dir, "work"),
	}
	if err := os.MkdirAll(testPaths.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func small(t *testing.T, name string) workload {
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.vertices = 2000
	return w
}

func TestGraphDigest(t *testing.T) {
	ctx := context.Background()
	digest := func(seed int64) (string, int64) {
		e, err := setUp(ctx, small(t, "sparse-io"), testPaths, seed, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		return e.digest, e.oracle
	}
	d1, n1 := digest(1)
	d1b, n1b := digest(1)
	d2, _ := digest(2)
	if d1 != d1b || n1 != n1b {
		t.Errorf("seed 1 gave digests %s and %s, counts %d and %d", d1, d1b, n1, n1b)
	}
	if d1 == d2 {
		t.Errorf("seeds 1 and 2 gave the same graph digest %s", d1)
	}
}

// TestSmoke runs every workload end to end at 2 000 vertices — real optd
// children and distributed jobs included — and one traced run of each path.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	// sameNames checks a run printed exactly the metrics BENCHMARK.json
	// declares, with the declared units.
	sameNames := func(t *testing.T, got map[string]metricValue, want map[string]string) {
		t.Helper()
		for name, unit := range want {
			if v, ok := got[name]; !ok || v.Unit != unit {
				t.Errorf("metric %s: got %+v (present %v), BENCHMARK.json declares unit %q", name, v, ok, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("metric %s is printed but not declared in BENCHMARK.json", name)
			}
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range man.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range man.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	for _, wl := range workloads {
		w := small(t, wl.name)
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := runEndToEnd(ctx, &out, w, testPaths, 1, 300*time.Millisecond)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			sameNames(t, rep.Metrics, endToEnd)
			for name, v := range rep.Metrics {
				if !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", name, v)
				}
			}
		})
	}
	for _, name := range []string{"sparse-dv", "serve-mix"} {
		w := small(t, name)
		t.Run(w.name+"/traced", func(t *testing.T) {
			var out bytes.Buffer
			rep, err := runTraced(ctx, &out, w, testPaths, 1, 600*time.Millisecond)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !rep.Correct {
				t.Errorf("traced run incorrect: %d of %d failed\n%s", rep.Failed, rep.Attempted, out.String())
			}
			sameNames(t, rep.Metrics, perLayer)
			for _, name := range []string{"storage.decode_s", "ssd.sweep_s", "intersect.kernel_s", "engine.run_ms",
				"core.iterations", "opttri.wall_ms", "server.job_miss_p50_ms", "cluster.dist_job_p50_ms", "cluster.tasks", "trace.spans"} {
				if v, ok := rep.Metrics[name]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", name, v)
				}
			}
			if got := rep.Metrics["cluster.tasks"].Value; got != 3 {
				t.Errorf("cluster.tasks = %v, want 3 (grid 2)", got)
			}
			if _, err := os.Stat(filepath.Join(testPaths.out, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}
