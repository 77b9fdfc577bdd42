// Package server is the HTTP serving tier of parsample: a thin, stateless
// handler layer over one shared parsample.Pipeline, so every request —
// concurrent, repeated, or overlapping — funnels into the same memoizing
// artifact store (identical in-flight requests compute each stage once;
// warm repeats are served from cache in microseconds).
//
// Endpoints (DESIGN.md §6):
//
//	POST   /v1/pipeline        synchronous run: api.Request in, api.Response out
//	POST   /v1/jobs            async submission; returns a job id immediately
//	GET    /v1/jobs/{id}       job status (+ response once done)
//	DELETE /v1/jobs/{id}       cancel a running job mid-kernel
//	GET    /v1/jobs/{id}/events  SSE per-stage progress from the engine trace
//	GET    /healthz            liveness
//	GET    /statsz             artifact-store counters
//
// Both run endpoints share one request lifecycle: accept decodes,
// normalizes and admits (writing any rejection itself), and run applies
// the request's deadline, attaches the endpoint's stage observer, runs
// Pipeline.Do under pipeline.Contain and maps a blown deadline to
// deadline_exceeded. The endpoints differ only in their observer (cache
// provenance for /v1/pipeline, SSE events for /v1/jobs) and in what they
// do with the outcome (write it now, or record it on the job).
//
// Every non-2xx response body is a structured api.Error. Synchronous
// responses carry an X-Parsample-Cache header ("hit" when every stage was
// served from the store, "disk" when served without compute but through
// the persistent tier, "miss" otherwise) — cache provenance stays out of
// the body so response bytes remain a pure function of the request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"parsample"
	"parsample/api"
	"parsample/internal/pipeline"
)

// Config parameterizes a Server.
type Config struct {
	// Pipeline is the shared engine every request runs on. Required.
	Pipeline *parsample.Pipeline
	// MaxBodyBytes bounds request bodies (0: 64 MiB).
	MaxBodyBytes int64
	// CapacityUnits is the admission gate's concurrent compute budget in
	// cost units (api.EstimateCost; 0: 2000 — about two seconds of
	// single-threaded kernel time in flight).
	CapacityUnits float64
	// QueueLimit bounds waiters parked at the admission gate across both
	// priority classes (0: 64). Requests beyond it get a 429.
	QueueLimit int
	// ClientRateUnits / ClientBurstUnits parameterize the per-client
	// fairness token bucket (0: capacity/2 per second, burst = capacity).
	ClientRateUnits  float64
	ClientBurstUnits float64
}

// CacheHeader is the response header reporting cache provenance of a
// synchronous run: "hit" when every stage was served from the in-memory
// store, "disk" when no stage computed but at least one was loaded from
// the persistent tier (the warm-restart signature), "miss" when any stage
// computed.
const CacheHeader = "X-Parsample-Cache"

// Cost headers: the admission-time estimate and the measured cost of a
// synchronous run (its wall milliseconds after admission when a stage
// computed, 0 otherwise), both in cost units. They travel as headers for the
// same reason CacheHeader does — response bodies are a pure function of
// the normalized request, and cost is server state, not result.
const (
	CostEstimateHeader = "X-Parsample-Cost-Estimate"
	CostActualHeader   = "X-Parsample-Cost-Actual"
)

// warmCostUnits is the admission price of a request whose expensive
// artifacts are already resident (Pipeline.Resident): a warm repeat is a
// store lookup, not a kernel run, so it is admitted at the floor price
// and never queues behind cold work it would not contend with.
const warmCostUnits = 1

// degradedRetryAfterSec is the Retry-After of a cold request shed at
// degradation level 2: pressure that trips the ladder drains on the order
// of the queue, not of one request.
const degradedRetryAfterSec = 2

// Server routes the v1 service API onto one shared Pipeline. Safe for
// concurrent use; create with New.
type Server struct {
	p       *parsample.Pipeline
	maxBody int64
	jobs    *jobStore
	mux     *http.ServeMux

	gate *admitGate
}

// New creates a Server over cfg.Pipeline.
func New(cfg Config) *Server {
	if cfg.Pipeline == nil {
		panic("server: Config.Pipeline is required")
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	s := &Server{
		p:       cfg.Pipeline,
		maxBody: maxBody,
		jobs:    newJobStore(),
		gate: newAdmitGate(admitConfig{
			Capacity:    cfg.CapacityUnits,
			QueueLimit:  cfg.QueueLimit,
			ClientRate:  cfg.ClientRateUnits,
			ClientBurst: cfg.ClientBurstUnits,
		}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/pipeline", s.handlePipeline)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handlePipeline is POST /v1/pipeline: one synchronous end-to-end run,
// behind the admission gate (priced by api.EstimateCost, discounted when
// the request's artifacts are resident). Its observer only tallies cache
// provenance for the response headers. The actual cost of a miss is the
// run's wall time after admission: stage durations are inclusive of their
// dependencies, so summing them would count nested work more than once.
func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	norm, adm, ok := s.accept(w, r, classInteractive)
	if !ok {
		return
	}
	defer adm.release()

	warm := true
	anyDisk := false
	start := time.Now()
	resp, err := s.run(r.Context(), requestRun, norm, func(e pipeline.TraceEntry) {
		switch e.Source {
		case pipeline.Computed:
			warm = false
		case pipeline.Disk:
			anyDisk = true
		}
	})
	runMS := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		writeError(w, err)
		return
	}
	// Provenance precedence: any computed stage makes the request a miss;
	// otherwise any persistent-tier load reports "disk" (the warm-restart
	// signature); otherwise everything came from memory — "hit".
	cache, actualMS := "miss", runMS
	if warm {
		cache, actualMS = "hit", 0
		if anyDisk {
			cache = "disk"
		}
	}
	w.Header().Set(CacheHeader, cache)
	w.Header().Set(CostEstimateHeader, formatUnits(adm.estimate))
	w.Header().Set(CostActualHeader, formatUnits(actualMS))
	writeJSON(w, http.StatusOK, resp)
}

// accept is the front of both run endpoints: it strictly decodes the body,
// normalizes it and admits it through the gate in class dflt (unless the
// priority header names another). On any rejection it writes the
// structured error itself — a 413 payload_too_large when the body-limit
// reader tripped (api.ReadRequest keeps the *http.MaxBytesError in its
// error chain for exactly this check), a 400 for a malformed request, the
// gate's 429/503 otherwise — and reports false. On success the caller owns
// admission.release.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, dflt classID) (*api.Request, *admission, bool) {
	req, err := api.ReadRequest(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.gate.countTooLarge()
			err = api.WrapError(api.CodePayloadTooLarge, err,
				"request body exceeds the %d-byte limit", mbe.Limit)
		}
		writeError(w, err)
		return nil, nil, false
	}
	norm, err := req.Normalized()
	if err != nil {
		writeError(w, err)
		return nil, nil, false
	}
	adm, ae := s.admit(r, norm, classFor(r, dflt))
	if ae != nil {
		writeError(w, ae)
		return nil, nil, false
	}
	return norm, adm, true
}

// runKind names a run in its failure texts: the Contain label of a panic
// ("<panic> panicked: …") and the subject of a blown deadline.
type runKind struct{ panic, deadline string }

var (
	requestRun = runKind{panic: "server: request", deadline: "run"}
	jobRun     = runKind{panic: "server: job", deadline: "job"}
)

// run executes an admitted, normalized request on the shared pipeline —
// the one run path of both endpoints. The request's deadline clocks
// compute, not queue time, so it starts here, after admission; observe
// sees every stage request. A panic escaping Do becomes an error (Contain)
// rather than net/http's dropped connection or, on a job's goroutine, a
// dead daemon, and a blown deadline comes back as CodeDeadlineExceeded.
func (s *Server) run(ctx context.Context, kind runKind, norm *api.Request, observe func(pipeline.TraceEntry)) (*api.Response, error) {
	if norm.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(norm.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	ctx = pipeline.WithObserver(ctx, observe)
	var resp *api.Response
	err := pipeline.Contain(kind.panic, func() error {
		var err error
		resp, err = s.p.Do(ctx, norm)
		return err
	})
	if err != nil && norm.DeadlineMillis > 0 && errors.Is(err, context.DeadlineExceeded) {
		err = api.WrapError(api.CodeDeadlineExceeded, err,
			"%s exceeded its %dms deadline", kind.deadline, norm.DeadlineMillis)
	}
	return resp, err
}

// admission is one admitted request's grant.
type admission struct {
	release  func()
	estimate float64 // the cold-cost estimate in units (pre-discount)
	units    float64 // the admitted (possibly warm-discounted) price
}

// classFor maps the priority header onto a class; dflt applies when the
// header is absent or unknown.
func classFor(r *http.Request, dflt classID) classID {
	switch r.Header.Get(PriorityHeader) {
	case "interactive":
		return classInteractive
	case "batch":
		return classBatch
	}
	return dflt
}

// admit prices norm, applies the degradation ladder, and acquires the
// admission gate. On rejection the returned *api.Error is ready to write
// (structured code + Retry-After). On success the caller owns
// admission.release.
func (s *Server) admit(r *http.Request, norm *api.Request, class classID) (*admission, *api.Error) {
	est := api.EstimateCost(norm)
	units := est.Units
	warm := s.p.Resident(norm)
	if warm {
		units = warmCostUnits
	}
	// Deadline feasibility: a request whose own deadline is below its
	// compute estimate can never succeed; reject it before it spends
	// budget. Queue wait is excluded by the DeadlineMillis contract.
	if norm.DeadlineMillis > 0 && units > float64(norm.DeadlineMillis) {
		return nil, api.Errorf(api.CodeOverCapacity,
			"deadline %dms is below the estimated compute cost of %.0f units; raise the deadline or shrink the request",
			norm.DeadlineMillis, units)
	}
	// Degradation rung 2: shed cold synthesis work before any cached work
	// is turned away — resident artifacts answer in microseconds and keep
	// the service useful while the backlog drains. A request the queue
	// bound would reject anyway skips the shed and gets the gate's 429.
	if !warm && norm.Network.Synthesis != nil &&
		s.gate.level() >= degradeShedCold && !s.gate.queueFull(units) {
		s.gate.countShedCold()
		ae := api.Errorf(api.CodeDegraded,
			"server is shedding cold synthesis requests under load; retry after %ds", degradedRetryAfterSec)
		ae.RetryAfterSec = degradedRetryAfterSec
		return nil, ae
	}
	client := r.Header.Get(ClientHeader)
	if client == "" {
		client = "anonymous"
	}
	release, ae := s.gate.Admit(r.Context(), client, class, units)
	if ae != nil {
		return nil, ae
	}
	return &admission{release: release, estimate: est.Units, units: units}, nil
}

func formatUnits(u float64) string {
	return strconv.FormatFloat(u, 'f', 1, 64)
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatsz is GET /statsz: the artifact-store counters, job
// bookkeeping, and the admission gate's pressure counters.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	type statsz struct {
		Store     parsample.PipelineStats `json:"store"`
		Jobs      jobCounts               `json:"jobs"`
		Admission admitStats              `json:"admission"`
	}
	adm := s.gate.stats()
	adm.Level = s.gate.level()
	writeJSON(w, http.StatusOK, statsz{Store: s.p.Stats(), Jobs: s.jobs.counts(), Admission: adm})
}

// writeJSON marshals v compactly. Marshalling the schema types cannot
// fail; a failure here is a programming error worth a 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"code":"internal","message":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

// statusCancelled is nginx's "client closed request": the run was
// cancelled (client disconnect or job DELETE) before a response existed.
const statusCancelled = 499

// writeError maps an error onto a status code and a structured api.Error
// body; load-shedding errors additionally carry a Retry-After header
// mirroring RetryAfterSec.
func writeError(w http.ResponseWriter, err error) {
	var ae *api.Error
	if !errors.As(err, &ae) {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ae = api.Errorf(api.CodeCancelled, "run cancelled: %v", err)
		} else {
			ae = api.Errorf(api.CodeInternal, "%v", err)
		}
	}
	if ae.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSec))
	}
	writeJSON(w, errorStatus(ae), ae)
}

// errorStatus maps an api.Error code to its HTTP status.
func errorStatus(ae *api.Error) int {
	switch ae.Code {
	case api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodeNotFound:
		return http.StatusNotFound
	case api.CodeCancelled:
		return statusCancelled
	case api.CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case api.CodeOverloaded:
		return http.StatusTooManyRequests
	case api.CodeOverCapacity, api.CodeDegraded:
		return http.StatusServiceUnavailable
	case api.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// pathID extracts the {id} wildcard, 404ing on empty.
func pathID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if id == "" {
		writeError(w, api.Errorf(api.CodeNotFound, "missing job id"))
		return "", false
	}
	return id, true
}
