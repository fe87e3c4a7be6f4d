package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// JobRequest is the wire form of one experiment cell. Omitted fields
// take the simulator's defaults (seed 1, 8 cores, 64 retries, no
// faults, exponential backoff, watchdog off) — the same defaults the
// cache key canonicalization folds in, so an explicit default and an
// omitted field address the same cached result.
type JobRequest struct {
	Workload   string `json:"workload"`
	Detection  string `json:"detection"`
	Scale      string `json:"scale"`
	Seed       uint64 `json:"seed"`
	Cores      int    `json:"cores"`
	MaxRetries int    `json:"maxRetries"`
	MaxCycles  int64  `json:"maxCycles"`

	FaultInterruptRate float64 `json:"faultInterruptRate"`
	FaultTLBRate       float64 `json:"faultTlbRate"`
	FaultCapacityRate  float64 `json:"faultCapacityRate"`

	RetryPolicy string `json:"retryPolicy"`

	WatchdogWindow        int64 `json:"watchdogWindow"`
	WatchdogMitigate      bool  `json:"watchdogMitigate"`
	WatchdogStarveWindows int64 `json:"watchdogStarveWindows"`

	// Priority is the admission class ("interactive", the default, or
	// "batch"). Serving metadata only: it never enters the content
	// address, and the X-ASF-Priority header overrides it when set.
	Priority string `json:"priority,omitempty"`
}

// Spec translates the request into a harness cell, reusing the same
// parse/validation paths the CLIs use for every enumeration.
func (jr JobRequest) Spec() (harness.CellSpec, error) {
	var spec harness.CellSpec
	spec.Workload = jr.Workload

	det := jr.Detection
	if det == "" {
		det = "subblock-4"
	}
	d, err := asfsim.ParseDetection(det)
	if err != nil {
		return spec, err
	}
	spec.Detection = d

	sc := jr.Scale
	if sc == "" {
		sc = "small"
	}
	scale, err := workloads.ParseScale(sc)
	if err != nil {
		return spec, err
	}
	spec.Scale = scale

	spec.Seed = jr.Seed
	spec.Cores = jr.Cores
	spec.MaxRetries = jr.MaxRetries
	spec.MaxCycles = jr.MaxCycles
	spec.Fault = asfsim.FaultConfig{
		InterruptRate:     jr.FaultInterruptRate,
		TLBRate:           jr.FaultTLBRate,
		CapacityNoiseRate: jr.FaultCapacityRate,
	}
	if jr.RetryPolicy != "" {
		kind, err := asfsim.ParseRetryPolicy(jr.RetryPolicy)
		if err != nil {
			return spec, err
		}
		spec.Retry.Kind = kind
	}
	spec.Watchdog = asfsim.WatchdogConfig{
		Window:        jr.WatchdogWindow,
		Mitigate:      jr.WatchdogMitigate,
		StarveWindows: jr.WatchdogStarveWindows,
	}
	return spec, spec.Validate()
}

// MatrixRequest expands to the cross product of its axes. Empty axes
// default to the paper's evaluation set: every registered Table III
// workload crossed with the six main-figure detection systems at one
// seed.
type MatrixRequest struct {
	Workloads  []string `json:"workloads"`
	Detections []string `json:"detections"`
	Scale      string   `json:"scale"`
	Seeds      []uint64 `json:"seeds"`
	Cores      int      `json:"cores"`
}

// Specs expands the matrix into per-cell specs in deterministic
// (workload-major, then detection, then seed) order.
func (mr MatrixRequest) Specs() ([]harness.CellSpec, error) {
	wls := mr.Workloads
	if len(wls) == 0 {
		wls = workloads.Names()
	}
	dets := mr.Detections
	if len(dets) == 0 {
		for _, d := range asfsim.Detections {
			dets = append(dets, d.String())
		}
	}
	seeds := mr.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var specs []harness.CellSpec
	for _, w := range wls {
		for _, ds := range dets {
			for _, seed := range seeds {
				jr := JobRequest{
					Workload:  w,
					Detection: ds,
					Scale:     mr.Scale,
					Seed:      seed,
					Cores:     mr.Cores,
				}
				spec, err := jr.Spec()
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs, nil
}

// SubmitRequest is the POST /v1/jobs body: either one inline cell or a
// matrix sweep (the "matrix" object wins when present).
type SubmitRequest struct {
	JobRequest
	Matrix *MatrixRequest `json:"matrix,omitempty"`
}

// SubmitResponse lists the accepted jobs. On a 429 it still carries the
// jobs accepted before the queue filled, so a client can poll those and
// resubmit only the remainder — plus the same structured error envelope
// (error + retryAfterSeconds) every other error path carries.
type SubmitResponse struct {
	Jobs              []JobView `json:"jobs"`
	Error             string    `json:"error,omitempty"`
	RetryAfterSeconds int       `json:"retryAfterSeconds,omitempty"`
}

// errorResponse is the structured error envelope every non-2xx response
// body decodes to: a non-empty "error", plus a machine-readable
// retry-after hint on backpressure statuses (429/503), mirroring the
// Retry-After header.
type errorResponse struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retryAfterSeconds,omitempty"`
}

// retryAfterHint returns the Retry-After seconds for a refusal status
// (0 = no hint). Shed and queue-full rejections (429) clear quickly —
// jobs complete in well under a second — while draining (503) means
// "find another endpoint", so it hints longer.
func retryAfterHint(status int) int {
	switch status {
	case http.StatusTooManyRequests:
		return 1
	case http.StatusServiceUnavailable:
		return 2
	default:
		return 0
	}
}

// writeError renders the structured envelope, attaching the Retry-After
// header and body hint on 429/503.
func writeError(w http.ResponseWriter, status int, msg string) {
	resp := errorResponse{Error: msg}
	if hint := retryAfterHint(status); hint > 0 {
		resp.RetryAfterSeconds = hint
		w.Header().Set("Retry-After", strconv.Itoa(hint))
	}
	writeJSON(w, status, resp)
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs             submit one cell or a matrix sweep (async, 202)
//	GET  /v1/jobs             list retained jobs (?state= filters; results omitted)
//	GET  /v1/jobs/{id}        poll one job; includes the result when done
//	                          (?wait=ms long-polls until it is terminal)
//	POST /v1/jobs/{id}/cancel abort a queued or running job
//	GET  /v1/traces           per-trace summaries, slowest first (?min_ms= filters)
//	GET  /v1/traces/{id}      every retained span for one trace ID
//	GET  /v1/metrics/history  load-gauge time series (ring of sampled points)
//	GET  /v1/audit            integrity scrubber report (passes, mismatches, repairs)
//	GET  /v1/version          build identity + cache key schema version
//	GET  /v1/replication/stream    follower long-poll: a batch of record-log lines
//	GET  /v1/replication/snapshot  follower bootstrap: the compacted log segment
//	POST /v1/replication/promote   warm standby -> serving primary
//	GET  /metrics             live counters, JSON
//	GET  /healthz             liveness + draining/degraded flags
//
// Every response carries X-ASF-Role ("primary" or "follower") so the
// client pool can steer submissions away from warm standbys without an
// extra round trip.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/metrics/history", s.handleHistory)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/replication/stream", s.handleReplStream)
	mux.HandleFunc("GET /v1/replication/snapshot", s.handleReplSnapshot)
	mux.HandleFunc("POST /v1/replication/promote", s.handlePromote)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		role := "primary"
		if s.Following() {
			role = "follower"
		}
		w.Header().Set("X-ASF-Role", role)
		// Bound every request body before any handler reads it: a client
		// (or a confused proxy) streaming an arbitrarily large payload
		// must cost at most MaxBodyBytes of memory, and the decode error
		// surfaces as a structured 413 rather than an OOM.
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		mux.ServeHTTP(w, r)
	})
}

// writeJSON answers with v as one line of compact JSON. A job view or a
// submit response carries its results as the daemon stores them, spliced
// in byte for byte (see appendView); everything else goes through
// encoding/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	switch v := v.(type) {
	case JobView:
		w.Write(append(appendView(nil, v), '\n'))
	case SubmitResponse:
		w.Write(append(appendSubmit(v), '\n'))
	default:
		json.NewEncoder(w).Encode(v)
	}
}

// appendView appends v's JSON encoding to b. The bytes are exactly what
// json.Marshal(v) gives, but the result is copied in as stored instead
// of being re-validated and re-compacted by encoding/json on every
// response, which costs more than encoding the rest of the view. That
// is safe because every stored result is already compact json.Marshal
// output: a new one is json.Marshal of its record, and a loaded or
// replicated one passed the record decode and the digest check against
// the bytes first stored. Result is JobView's last field, so it closes
// the object.
func appendView(b []byte, v JobView) []byte {
	result := v.Result
	v.Result = nil
	head, _ := json.Marshal(v) // strings, numbers and bools: cannot fail
	if len(result) == 0 {
		return append(b, head...)
	}
	b = append(b, head[:len(head)-1]...)
	b = append(b, `,"result":`...)
	b = append(b, result...)
	return append(b, '}')
}

// appendSubmit encodes a submit response as json.Marshal would, with
// each job view spliced by appendView. Jobs is the first field and never
// omitted, so the encoding of the response without its jobs starts with
// `{"jobs":[` and the views go right after it.
func appendSubmit(resp SubmitResponse) []byte {
	const open = `{"jobs":[`
	jobs := resp.Jobs
	if jobs == nil {
		b, _ := json.Marshal(resp) // "jobs":null
		return b
	}
	resp.Jobs = []JobView{}
	rest, _ := json.Marshal(resp)
	b := []byte(open)
	for i, v := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendView(b, v)
	}
	return append(b, rest[len(open):]...)
}

// submitOpts assembles per-submission serving metadata from the request
// headers: X-ASF-Deadline (RFC3339Nano) propagates the client's
// deadline; X-ASF-Priority overrides the body's priority field;
// X-ASF-Trace joins the submission to a client-generated trace.
func submitOpts(r *http.Request, bodyPriority string) (SubmitOpts, error) {
	var opts SubmitOpts
	opts.Trace = r.Header.Get("X-ASF-Trace")
	pri := r.Header.Get("X-ASF-Priority")
	if pri == "" {
		pri = bodyPriority
	}
	p, err := ParsePriority(pri)
	if err != nil {
		return opts, err
	}
	opts.Priority = p
	if v := r.Header.Get("X-ASF-Deadline"); v != "" {
		dl, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			return opts, fmt.Errorf("bad X-ASF-Deadline %q: %v", v, err)
		}
		opts.Deadline = dl
	}
	return opts, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d byte limit", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	opts, err := submitOpts(r, req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	var specs []harness.CellSpec
	if req.Matrix != nil {
		var err error
		specs, err = req.Matrix.Specs()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		spec, err := req.JobRequest.Spec()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		specs = []harness.CellSpec{spec}
	}

	resp := SubmitResponse{Jobs: []JobView{}}
	for _, spec := range specs {
		_, view, err := s.SubmitJob(spec, opts)
		if err != nil {
			status := submitErrorStatus(err)
			resp.Error = err.Error()
			if hint := retryAfterHint(status); hint > 0 {
				resp.RetryAfterSeconds = hint
				w.Header().Set("Retry-After", strconv.Itoa(hint))
			}
			writeJSON(w, status, resp)
			return
		}
		resp.Jobs = append(resp.Jobs, view)
	}
	start := time.Now()
	writeJSON(w, http.StatusAccepted, resp)
	// A cache hit is answered here, with no poll after it: the respond
	// stage must close on this path too.
	s.responded(opts.Trace, start, "jobs", strconv.Itoa(len(resp.Jobs)))
}

func submitErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrFollowing):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrKeyPoisoned):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrDeadlineExpired):
		return http.StatusRequestTimeout
	default:
		return http.StatusBadRequest
	}
}

// JobListResponse is the GET /v1/jobs document.
type JobListResponse struct {
	Jobs []JobView `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	state, err := ParseJobState(r.URL.Query().Get("state"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.Jobs(state)})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Lookup(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	// Cancel returning false here just means the job already reached a
	// terminal state — from the client's point of view that is success
	// (the job is not running), so report the current view either way.
	s.Cancel(id)
	view, _ := s.Lookup(id)
	writeJSON(w, http.StatusOK, view)
}

// maxWait caps a long-poll's ?wait, so a held request always ends
// well inside common proxy and client timeouts.
const maxWait = 30 * time.Second

// parseWait reads a ?wait long-poll bound: a whole number of
// milliseconds, capped at maxWait. Empty means no wait.
func parseWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("bad wait %s", v)
	}
	return min(time.Duration(ms)*time.Millisecond, maxWait), nil
}

// handleJob serves GET /v1/jobs/{id}. With ?wait=ms it long-polls: the
// response is held, without the server lock, until the job is terminal,
// the wait expires, the client goes away, or the daemon starts
// stopping, and then carries the job's current view.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	if wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-job.Done:
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.stopping: // closed before any s.kill
		}
		timer.Stop()
	}
	start := time.Now()
	view, ok := s.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	writeJSON(w, http.StatusOK, view)
	s.responded(r.Header.Get("X-ASF-Trace"), start, "job", id, "state", string(view.State))
}

// responded closes out the respond stage: wall time into the histogram
// always, and a "respond" span when the request is traced.
func (s *Server) responded(trace string, start time.Time, attrs ...string) {
	d := time.Since(start)
	s.stages.respond.Observe(d)
	s.span(trace, "respond", start, d, attrs...)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	degraded, _ := s.Degraded()
	traceSpans, traceDropped := s.tracer.Counters()
	role := "primary"
	if s.Following() {
		role = "follower"
	}
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.QueueDepth(), s.Running(), s.adm.Limit(), s.cache, s.log.records(), degraded,
		s.stages.summaries(), traceSpans, traceDropped, s.history.Len(), role, s.ReplicationLag()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}
