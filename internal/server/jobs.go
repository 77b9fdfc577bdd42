package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"parsample/api"
	"parsample/internal/faultinject"
	"parsample/internal/pipeline"
)

// Job statuses. A job is running from submission until its run returns;
// cancellation requested via DELETE lands as "cancelled" once the kernels
// unwind.
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobInfo is the wire form of a job's state (GET /v1/jobs/{id} and the
// submission/cancellation acknowledgements).
type JobInfo struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Error is set for failed and cancelled jobs.
	Error *api.Error `json:"error,omitempty"`
	// Response is set once the job is done.
	Response *api.Response `json:"response,omitempty"`
}

// Event is one SSE frame of a job's progress stream: a completed engine
// stage request ("stage"), or the terminal frame ("done") carrying the
// job's final status.
type Event struct {
	Seq int `json:"seq"`
	// Type is "stage" or "done".
	Type string `json:"type"`
	// Stage/Variant/Source/Millis describe a stage event: which artifact,
	// whether it was computed / served resident / joined in-flight, and the
	// request's wall time.
	Stage   string  `json:"stage,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Source  string  `json:"source,omitempty"`
	Millis  float64 `json:"ms,omitempty"`
	// Status is the job's final status on the "done" frame.
	Status string `json:"status,omitempty"`
}

// job is one asynchronous run.
type job struct {
	id     string
	cancel context.CancelFunc

	mu     sync.Mutex
	status string
	resp   *api.Response
	err    *api.Error
	events []Event
	subs   map[chan Event]bool
}

// record appends an event and fans it out to live subscribers. Buffered
// subscriber channels are sized past any plausible event count; a
// (pathological) full subscriber is skipped rather than blocking the
// compute goroutine.
func (j *job) record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// subscribe registers a live channel and returns a snapshot of everything
// recorded so far. Snapshot and registration happen under one lock, so the
// replay + live stream is gapless and in order.
func (j *job) subscribe(ch chan Event) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := append([]Event(nil), j.events...)
	j.subs[ch] = true
	return snap
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// info snapshots the job's wire form.
func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{ID: j.id, Status: j.status, Error: j.err, Response: j.resp}
}

// finish records the terminal state and emits the "done" frame.
func (j *job) finish(status string, resp *api.Response, jerr *api.Error) {
	j.mu.Lock()
	j.status = status
	j.resp = resp
	j.err = jerr
	j.mu.Unlock()
	j.record(Event{Type: "done", Status: status})
}

// jobStore tracks jobs by id, retaining the most recent finished jobs up
// to a cap (running jobs are never evicted).
type jobStore struct {
	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	finished []string // eviction order
	capacity int
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job), capacity: 256}
}

// create publishes a new running job. cancel must be supplied here: the
// job is reachable by id (and ids are predictable) the moment it enters
// the map, so a concurrently arriving DELETE may invoke it immediately.
func (s *jobStore) create(cancel context.CancelFunc) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{
		id:     fmt.Sprintf("job-%06d", s.seq),
		cancel: cancel,
		status: JobRunning,
		subs:   make(map[chan Event]bool),
	}
	s.jobs[j.id] = j
	return j
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retire marks a job finished for retention accounting, evicting the
// oldest finished jobs beyond the cap.
func (s *jobStore) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.capacity {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
	}
}

type jobCounts struct {
	Running  int `json:"running"`
	Finished int `json:"finished"`
}

func (s *jobStore) counts() jobCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return jobCounts{Running: len(s.jobs) - len(s.finished), Finished: len(s.finished)}
}

// handleJobSubmit is POST /v1/jobs: validate eagerly (malformed requests
// fail with a 400 now, not a failed job later), admit through the gate
// (batch class by default — a 429/503 rejection happens at submission,
// not as a failed job later), then run in the background and return the
// job id immediately. The job holds its admitted units until its run
// returns, so queued async work counts against the same compute budget
// as synchronous requests.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	norm, adm, ok := s.accept(w, r, classBatch)
	if !ok {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := s.jobs.create(cancel)
	// One event per artifact: the engine reports every store request,
	// including cache hits taken while resolving a later stage's
	// dependencies, so a key's first completion is the progress signal and
	// the rest are noise. The observer runs on the job's single compute
	// goroutine, so the seen-set needs no lock.
	seen := make(map[pipeline.Key]bool)
	observe := func(e pipeline.TraceEntry) {
		if seen[e.Key] {
			return
		}
		seen[e.Key] = true
		j.record(Event{
			Type:    "stage",
			Stage:   e.Key.Stage.String(),
			Variant: e.Key.Variant.String(),
			Source:  e.Source.String(),
			Millis:  float64(e.Duration.Microseconds()) / 1000,
		})
	}
	go func() {
		defer cancel()
		defer adm.release()
		resp, err := s.run(ctx, jobRun, norm, observe)
		switch {
		case err == nil:
			j.finish(JobDone, resp, nil)
		case errors.Is(err, context.Canceled):
			j.finish(JobCancelled, nil, api.Errorf(api.CodeCancelled, "job cancelled"))
		default:
			var ae *api.Error
			if !errors.As(err, &ae) {
				ae = api.Errorf(api.CodeInternal, "%v", err)
			}
			j.finish(JobFailed, nil, ae)
		}
		s.jobs.retire(j.id)
	}()
	writeJSON(w, http.StatusAccepted, j.info())
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleJobCancel is DELETE /v1/jobs/{id}: request cancellation. The
// kernels unwind cooperatively; poll GET (or watch the event stream) for
// the terminal "cancelled" status.
//
// DELETE is idempotent: on a job that already reached a terminal state it
// is a no-op answered 200 with the (unchanged) terminal info, and
// concurrent DELETEs of one job are safe — context.CancelFunc is
// idempotent, and the cancel-then-snapshot order below means at least one
// racer observes (and reports) the still-running state as 202 while none
// can resurrect or corrupt a finished job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "no job %q", id))
		return
	}
	j.cancel()
	info := j.info()
	status := http.StatusAccepted
	if info.Status != JobRunning {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// handleJobEvents is GET /v1/jobs/{id}/events: an SSE stream replaying the
// job's recorded stage events and following live until the terminal
// "done" frame. Events arrive in engine completion order — for a cold
// run: network, order, filter, cluster, score — each frame a JSON Event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, api.Errorf(api.CodeNotFound, "no job %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, api.Errorf(api.CodeInternal, "response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Slow-consumer shedding: each frame gets sseWriteTimeout to drain
	// into the peer's socket. A consumer that cannot keep up stalls its
	// own connection only — the write deadline trips, the stream is
	// dropped (counted in /statsz shed.sseSlowConsumers), and the compute
	// side is untouched (j.record never blocks on subscribers).
	sse := &sseWriter{w: w, fl: fl, rc: http.NewResponseController(w)}

	ch := make(chan Event, 256)
	replay := j.subscribe(ch)
	defer j.unsubscribe(ch)
	for _, e := range replay {
		if !sse.writeEvent(e) {
			s.gate.countShedSSE()
			return
		}
		if e.Type == "done" {
			return
		}
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case e := <-ch:
			if !sse.writeEvent(e) {
				s.gate.countShedSSE()
				return
			}
			if e.Type == "done" {
				return
			}
		case <-heartbeat.C:
			// SSE comment frame: keeps idle proxies from timing the
			// stream out while a long kernel runs.
			if !sse.writeRaw(": keepalive\n\n") {
				s.gate.countShedSSE()
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// sseWriteTimeout is the per-frame write deadline of an SSE stream; a
// consumer that cannot drain a frame this fast is shed.
const sseWriteTimeout = 10 * time.Second

// sseWriter writes SSE frames under a per-write deadline.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
	rc *http.ResponseController
}

// writeEvent emits one SSE frame; false when the client is gone or too
// slow.
func (s *sseWriter) writeEvent(e Event) bool {
	b, err := json.Marshal(e)
	if err != nil {
		return false
	}
	return s.writeRaw(fmt.Sprintf("event: %s\ndata: %s\n\n", e.Type, b))
}

func (s *sseWriter) writeRaw(frame string) bool {
	// Failpoint: a slow consumer whose TCP buffer is full surfaces as a
	// blocked write that trips the deadline; the injected error simulates
	// that without needing a real stalled socket.
	if err := faultinject.Eval("server.sse.write"); err != nil {
		return false
	}
	// Roll the deadline forward for this frame. ErrNotSupported (a
	// recorder or a middleware without deadline plumbing) degrades to
	// unbounded writes rather than failing the stream.
	if err := s.rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return false
	}
	if _, err := fmt.Fprint(s.w, frame); err != nil {
		return false
	}
	s.fl.Flush()
	return true
}
