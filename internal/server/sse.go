package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/optlab/opt/internal/events"
)

// eventHub is the job-scoped bridge between the engine's events.Sink and
// any number of SSE subscribers. It honours the sink contract — Event
// never blocks, whatever the consumers do — by fanning out through
// bounded per-subscriber channels that drop (and count) events when a
// slow client falls behind, while a bounded replay ring preserves the
// most recent history for late subscribers.
type eventHub struct {
	mu     sync.Mutex
	ring   []events.Event // last ≤ maxLen events; once full, ring[head] is the oldest
	head   int
	maxLen int
	seq    int64 // events ever accepted (ring may have dropped the head)
	subs   map[*subscriber]struct{}
	closed bool
}

type subscriber struct {
	ch      chan events.Event
	dropped int64 // events not delivered because ch was full
}

// newEventHub returns a hub keeping maxLen (Config.EventBuffer, defaulted
// by New) events of history and per-subscriber backlog.
func newEventHub(maxLen int) *eventHub {
	return &eventHub{maxLen: maxLen, subs: make(map[*subscriber]struct{})}
}

// Event implements events.Sink. It is safe for concurrent use and never
// blocks: emitters sit on the engine's hot paths.
func (h *eventHub) Event(e events.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	if len(h.ring) == h.maxLen {
		h.ring[h.head] = e
		h.head = (h.head + 1) % h.maxLen
	} else {
		h.ring = append(h.ring, e)
	}
	for s := range h.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped++
		}
	}
}

// Subscribe returns the replayable history plus a live channel. The
// channel is closed when the hub closes (job reached a terminal state) or
// when the returned cancel function runs. Subscribing to a closed hub
// still returns the history with an already-closed channel, so a client
// attaching after completion sees the full (bounded) stream.
func (h *eventHub) Subscribe() (replay []events.Event, ch <-chan events.Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append(append([]events.Event(nil), h.ring[h.head:]...), h.ring[:h.head]...)
	s := &subscriber{ch: make(chan events.Event, h.maxLen)}
	if h.closed {
		close(s.ch)
		return replay, s.ch, func() {}
	}
	h.subs[s] = struct{}{}
	return replay, s.ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[s]; ok {
			delete(h.subs, s)
			close(s.ch)
		}
	}
}

// Close ends the stream: every subscriber channel is closed after the
// events already fanned out, and further Event calls are ignored.
func (h *eventHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}

// writeSSE writes one server-sent event frame.
func writeSSE(w io.Writer, event string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
	return err
}
