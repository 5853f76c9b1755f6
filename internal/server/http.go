package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/optlab/opt/internal/cluster"
)

// retryAfterSeconds is the backpressure hint sent with 429/503 responses.
// Jobs at laptop scale finish in seconds; a saturated queue usually has
// capacity again within one.
const retryAfterSeconds = "1"

// NewHandler builds the optd HTTP API over m:
//
//	POST   /jobs             submit a job (202; 200 on a cache hit;
//	                         429 + Retry-After when the queue is full;
//	                         503 while draining)
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        job status, result, per-job metrics snapshot
//	DELETE /jobs/{id}        cancel (the run winds down within an iteration)
//	GET    /jobs/{id}/events server-sent progress events
//	GET    /stores           registered store names
//	GET    /healthz          daemon stats (queue, budget, cache)
//
// The distributed layer adds the agent role's endpoint and, for the
// coordinator role, the same five job routes under /dist/jobs — one handler
// set serves both mounts:
//
//	POST   /tasks                 execute one shard-pair task (agent role);
//	                              runs through the ordinary job substrate
//	POST   /dist/jobs             submit a distributed job (coordinator role)
//	GET    /dist/jobs             list distributed jobs
//	GET    /dist/jobs/{id}        distributed job status and merge report
//	DELETE /dist/jobs/{id}        cancel a distributed job
//	GET    /dist/jobs/{id}/events aggregated per-shard progress (SSE)
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	(&api{m: m, kind: kindLocal, submit: submitter(m.Submit)}).mount(mux, "/jobs")
	(&api{m: m, kind: kindDist, submit: submitter(m.SubmitDist)}).mount(mux, "/dist/jobs")
	mux.HandleFunc("GET /stores", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stores())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})
	// The agent role's endpoint: execute one shard-pair task frame through
	// the local job substrate and answer with the result frame.
	mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, r *http.Request) {
		t, err := decode[cluster.TaskMessage](r)
		if err != nil {
			writeError(w, err)
			return
		}
		res, err := m.RunTask(r.Context(), t)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	return mux
}

// api is the one job handler set, mounted once per job kind. A mount
// serves the jobs of its kind only: an id of the other kind is 404 there,
// and the listing leaves the other kind out.
type api struct {
	m      *Manager
	kind   string // id prefix of the jobs this mount serves
	submit func(r *http.Request) (*Job, error)
}

func (h *api) mount(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("POST "+prefix, h.post)
	mux.HandleFunc("GET "+prefix, h.list)
	mux.HandleFunc("GET "+prefix+"/{id}", h.get)
	mux.HandleFunc("DELETE "+prefix+"/{id}", h.cancel)
	mux.HandleFunc("GET "+prefix+"/{id}/events", h.stream)
}

// decode reads the request's JSON body into a T. A key T does not declare
// is a 400 naming it: a misspelt knob must not silently run the default.
func decode[T any](r *http.Request) (T, error) {
	var v T
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, errors.Join(ErrBadRequest, err)
	}
	return v, nil
}

// submitter adapts a typed Manager submit method to a request handler's
// needs: decode the kind's spec, admit it.
func submitter[S any](submit func(S) (*Job, error)) func(*http.Request) (*Job, error) {
	return func(r *http.Request) (*Job, error) {
		spec, err := decode[S](r)
		if err != nil {
			return nil, err
		}
		return submit(spec)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError maps the manager's error vocabulary onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds)
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds)
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrBudgetTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// lookup resolves the request's {id} to a job of this mount's kind,
// answering 404 itself when there is none.
func (h *api) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := h.m.Get(id)
	if !ok || !strings.HasPrefix(id, h.kind) {
		writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
		return nil, false
	}
	return job, true
}

func (h *api) post(w http.ResponseWriter, r *http.Request) {
	job, err := h.submit(r)
	if err != nil {
		writeError(w, err)
		return
	}
	st := job.Status()
	code := http.StatusAccepted
	if s, ok := st.(Status); ok && s.Cached {
		code = http.StatusOK // served from the result cache, already done
	}
	writeJSON(w, code, st)
}

func (h *api) list(w http.ResponseWriter, r *http.Request) {
	out := []any{}
	for _, j := range h.m.Jobs() {
		if strings.HasPrefix(j.ID, h.kind) {
			out = append(out, j.Status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *api) get(w http.ResponseWriter, r *http.Request) {
	if job, ok := h.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (h *api) cancel(w http.ResponseWriter, r *http.Request) {
	if job, ok := h.lookup(w, r); ok {
		job.Cancel()
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

// stream serves the job's progress as server-sent events: the buffered
// history first, then live events, then one terminal "done" frame with
// the final job status once the run reaches a terminal state.
func (h *api) stream(w http.ResponseWriter, r *http.Request) {
	job, ok := h.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("server: streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := job.hub.Subscribe()
	defer cancel()
	for _, e := range replay {
		if err := writeSSE(w, "progress", e); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case e, ok := <-live:
			// Write e and every event already queued behind it, then flush
			// the batch once: a run emits its events in bursts, and a flush
			// per frame was ≈ 5 % of a serving daemon's CPU.
			for more := ok; more; {
				if err := writeSSE(w, "progress", e); err != nil {
					return
				}
				select {
				case e, more = <-live:
					ok = more
				default:
					more = false
				}
			}
			if ok {
				flusher.Flush()
				continue
			}
			// Hub closed: the job is terminal; send the final status.
			_ = writeSSE(w, "done", job.Status())
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
