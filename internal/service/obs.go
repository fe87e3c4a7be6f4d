package service

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
)

// KeySchemaVersion exposes the cache key schema version for the
// GET /v1/version document: two daemons with different versions must
// not share snapshots, and the client can detect the mismatch.
func KeySchemaVersion() int { return keySchemaVersion }

// stageHists is one latency histogram per server pipeline stage. The
// stage vocabulary is fixed and matches the span names the tracer
// records, so /metrics "stageLatencyMs" and /v1/traces tell the same
// story at different resolutions:
//
//	admission    Submit-path decision time (validate, breaker, cache
//	             lookup, admission control) — rejections included
//	queue        accepted-to-dequeued wait in the bounded queue
//	cache        result-cache lookup alone
//	singleflight dequeue-side wait behind an identical executing cell
//	journal      one fsync'd journal append
//	execute      the simulation itself (machine acquire + run)
//	respond      GET /v1/jobs/{id} render time
//	snapshot     one checkpoint (Persist): journal compaction or snapshot write
//
// Every histogram is lock-free and allocation-free (obs.Hist), so the
// stages are recorded unconditionally — tracing on or off.
type stageHists struct {
	admission    obs.Hist
	queue        obs.Hist
	cache        obs.Hist
	singleflight obs.Hist
	journal      obs.Hist
	execute      obs.Hist
	respond      obs.Hist
	snapshot     obs.Hist
}

// summaries renders every stage, including untouched ones — a fixed key
// set keeps the /metrics schema stable regardless of traffic.
func (h *stageHists) summaries() map[string]obs.HistSummary {
	return map[string]obs.HistSummary{
		"admission":    h.admission.Summary(),
		"queue":        h.queue.Summary(),
		"cache":        h.cache.Summary(),
		"singleflight": h.singleflight.Summary(),
		"journal":      h.journal.Summary(),
		"execute":      h.execute.Summary(),
		"respond":      h.respond.Summary(),
		"snapshot":     h.snapshot.Summary(),
	}
}

// span records one server-side span when tracing is on and the request
// carried a trace ID; otherwise it is a no-op. Durations are measured
// at the call site so the record is one call, not a start/end pair.
func (s *Server) span(trace, name string, start time.Time, d time.Duration, attrs ...string) {
	if s.tracer == nil || trace == "" {
		return
	}
	s.tracer.Record(trace, name, start, start.Add(d), attrs...)
}

// serverTrace groups spans with no request context (snapshot flushes,
// recovery) under one well-known pseudo-trace ID.
const serverTrace = "server"

// historyGauges is the fixed column set of /v1/metrics/history.
var historyGauges = []string{
	"queueDepth", "jobsRunning", "admissionLimit",
	"cacheSize", "heapBytes", "goroutines",
}

// sampleHistory appends one point of the daemon's load gauges.
func (s *Server) sampleHistory() {
	if s.history == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.history.Record(
		float64(s.QueueDepth()),
		float64(s.Running()),
		float64(s.adm.Limit()),
		float64(s.cache.Len()),
		float64(ms.HeapAlloc),
		float64(runtime.NumGoroutine()),
	)
}

// historyLoop samples the gauges every interval until stopped.
func (s *Server) historyLoop(interval time.Duration) {
	defer close(s.historyDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sampleHistory()
		case <-s.historyStop:
			return
		}
	}
}

func (s *Server) stopHistory() {
	s.historyOnce.Do(func() { close(s.historyStop) })
	<-s.historyDone
}

// Tracer exposes the server's trace ring (nil when tracing is off) —
// used by tests and the fleet soak's artifact dump.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// TraceResponse is the GET /v1/traces/{id} document: every retained
// span for one trace ID, in record order.
type TraceResponse struct {
	Trace string     `json:"trace"`
	Spans []obs.Span `json:"spans"`
}

// TraceListResponse is the GET /v1/traces document: per-trace
// summaries, slowest first, filtered by ?min_ms=.
type TraceListResponse struct {
	Recorded uint64             `json:"recorded"`
	Dropped  uint64             `json:"dropped"`
	Traces   []obs.TraceSummary `json:"traces"`
}

// HistoryResponse is the GET /v1/metrics/history document: the gauge
// time series the sampler has retained, oldest point first.
type HistoryResponse struct {
	IntervalMs int64              `json:"intervalMs"`
	Names      []string           `json:"names"`
	Points     []obs.HistoryPoint `json:"points"`
}

// VersionInfo is the GET /v1/version document.
type VersionInfo struct {
	Module           string `json:"module"`
	GoVersion        string `json:"goVersion"`
	KeySchemaVersion int    `json:"keySchemaVersion"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (start the daemon with a trace capacity)")
		return
	}
	id := r.PathValue("id")
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no retained spans for trace "+id)
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{Trace: id, Spans: spans})
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (start the daemon with a trace capacity)")
		return
	}
	var min time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad min_ms "+v)
			return
		}
		min = time.Duration(ms * float64(time.Millisecond))
	}
	rec, drop := s.tracer.Counters()
	writeJSON(w, http.StatusOK, TraceListResponse{
		Recorded: rec,
		Dropped:  drop,
		Traces:   s.tracer.Summaries(min),
	})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusNotFound, "metrics history disabled (start the daemon with a history interval)")
		return
	}
	snap := s.history.Snapshot()
	writeJSON(w, http.StatusOK, HistoryResponse{
		IntervalMs: s.cfg.HistoryInterval.Milliseconds(),
		Names:      snap.Names,
		Points:     snap.Points,
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Version())
}

// Version reports build identity: module path, Go toolchain, and the
// cache key schema version this binary writes.
func Version() VersionInfo {
	return VersionInfo{
		Module:           "repro",
		GoVersion:        runtime.Version(),
		KeySchemaVersion: keySchemaVersion,
	}
}
