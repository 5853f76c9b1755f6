package bench

import (
	"slices"
	"testing"
	"time"

	"github.com/optlab/opt/internal/events"
)

// stream builds n recorded tasks of one class and duration in one group.
func stream(group, n int, class int64, d time.Duration) []events.Event {
	var ts []events.Event
	for i := 0; i < n; i++ {
		ts = append(ts, events.Event{Kind: events.TaskDone, Iteration: group, N: class, Elapsed: d})
	}
	return ts
}

// TestReplayBalances: equal tasks spread evenly, whatever their class, when
// every core is eligible.
func TestReplayBalances(t *testing.T) {
	tasks := stream(0, 8, events.TaskExternal, time.Millisecond)
	for c, want := range map[int]time.Duration{1: 8 * time.Millisecond, 2: 4 * time.Millisecond, 4: 2 * time.Millisecond} {
		if got := makespans(replay(tasks, c, true)); got != want {
			t.Errorf("%d cores: makespan = %v, want %v", c, got, want)
		}
	}
}

// TestReplayPolicy: without morphing external work lands only on the
// external-home (odd) cores, and a single core accepts both classes.
func TestReplayPolicy(t *testing.T) {
	clocks := replay(stream(0, 6, events.TaskExternal, time.Millisecond), 4, false)[0]
	ms := time.Millisecond
	if want := []time.Duration{0, 3 * ms, 0, 3 * ms}; !slices.Equal(clocks, want) {
		t.Errorf("4 cores without morphing: clocks = %v, want %v", clocks, want)
	}
	both := append(stream(0, 1, events.TaskInternal, ms), stream(0, 1, events.TaskExternal, 2*ms)...)
	if got := makespans(replay(both, 1, false)); got != 3*ms {
		t.Errorf("1 core without morphing: makespan = %v, want 3ms", got)
	}
	// An almost entirely external group (Figure 4): two cores balance it
	// only when the internal-home one may morph.
	skewed := append(stream(0, 1, events.TaskInternal, ms), stream(0, 7, events.TaskExternal, ms)...)
	if with, without := makespans(replay(skewed, 2, true)), makespans(replay(skewed, 2, false)); with != 4*ms || without != 7*ms {
		t.Errorf("skewed group on 2 cores: %v with morphing, %v without; want 4ms and 7ms", with, without)
	}
}

// TestReplayBarrier: a group's idle cores never take the next group's
// tasks, also when the recorded stream interleaves the groups.
func TestReplayBarrier(t *testing.T) {
	ms := time.Millisecond
	var tasks []events.Event
	for _, d := range []time.Duration{4 * ms, ms} {
		tasks = append(tasks, stream(0, 1, events.TaskInternal, d)...)
		tasks = append(tasks, stream(1, 1, events.TaskInternal, d)...)
	}
	// Per group on 2 cores: 4 ms beside 1 ms. One pool would fit all in 5 ms.
	if got := makespans(replay(tasks, 2, true)); got != 8*ms {
		t.Errorf("two groups: makespan = %v, want 8ms", got)
	}
}

// TestReplayRecordedRun replays one real recorded run of each method: the
// count is the serial one, the modelled elapsed is non-increasing in the
// core count, and no speed-up exceeds it.
func TestReplayRecordedRun(t *testing.T) {
	h, err := NewHarness(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	_, st, err := h.proxyStore("twitter")
	if err != nil {
		t.Fatal(err)
	}
	mem := budget(st, 0.15)
	serial, err := h.runOPTSerial(st, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := h.recordOPT(st, mem, false)
	if err != nil {
		t.Fatal(err)
	}
	gchi, err := h.recordGChi(st, mem)
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*recording{"OPT": opt, "GraphChi-Tri": gchi} {
		if rec.Triangles != serial.Triangles {
			t.Errorf("%s: recorded run counted %d, OPT_serial %d", name, rec.Triangles, serial.Triangles)
		}
		if len(rec.tasks) == 0 || rec.busy <= 0 || rec.serial <= 0 {
			t.Fatalf("%s: %d tasks, busy %v, serial %v", name, len(rec.tasks), rec.busy, rec.serial)
		}
		base := rec.elapsed(1, true)
		if base != rec.serial+rec.busy {
			t.Errorf("%s: 1-core elapsed %v != serial %v + busy %v", name, base, rec.serial, rec.busy)
		}
		prev := base
		for c := 2; c <= 6; c++ {
			cur := rec.elapsed(c, true)
			if cur > prev {
				t.Errorf("%s: elapsed rose at %d cores: %v > %v", name, c, cur, prev)
			}
			if float64(base)/float64(cur) > float64(c)+1e-9 {
				t.Errorf("%s: speed-up %v at %d cores exceeds the core count", name, float64(base)/float64(cur), c)
			}
			prev = cur
		}
		if prev >= base {
			t.Errorf("%s: no modelled speed-up at 6 cores (%v vs %v)", name, prev, base)
		}
	}
}
