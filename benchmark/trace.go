package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/optlab/opt/internal/diskio"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into the program (or rebuilt from timestamps the program's status
// JSON exposes). Start and End are offsets from the recorder's epoch.
type span struct {
	ID     int
	Parent int    // 0 = root
	Trace  string // workload/op identifier shared by the spans of one op
	Name   string
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

// tracer collects spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so untraced ops share the traced code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, trace, name string, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Args: args,
	})
	return id
}

// open reserves an id for a span whose children are recorded before it
// ends; finish fills in the end time.
func (t *tracer) open(parent int, trace, name string, start time.Time) int {
	return t.add(parent, trace, name, start, start, nil)
}

func (t *tracer) finish(id int, end time.Time, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch)
	t.spans[id-1].Args = args
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once; children are
// clipped to the parent).
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func selfTimes(spans []span) []selfRow {
	type iv struct{ lo, hi time.Duration }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end time.Duration
		end = s.Start
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			if c.lo < end {
				c.lo = end
			}
			covered += c.hi - c.lo
			end = c.hi
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += s.End - s.Start - covered
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "# self time per span name (duration minus the part child spans cover)\n")
	fmt.Fprintf(w, "# %-26s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-26s %7d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, Perfetto). One thread lane per op keeps nested spans
// stacked.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans to path in Chrome trace format.
func writeChromeTrace(path string, spans []span) error {
	lanes := make(map[string]int)
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		lane, ok := lanes[s.Trace]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Trace] = lane
		}
		args := map[string]any{"trace": s.Trace, "id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: lane, Args: args,
		})
	}
	f, err := diskio.CreateRaw(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close() // the encode error is the one reported
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return err
	}
	return f.Close()
}
