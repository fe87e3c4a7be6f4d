// Package client is the typed Go client for the asfd daemon — and for
// fleets of them: submit experiment cells, poll jobs, and collect whole
// figure matrices over HTTP, with the resilience the crash-safe daemon
// calls for. One client can front several endpoints (comma-separated
// base URLs): submissions are routed by rendezvous hashing on the
// cell's content so repeat submissions find the server whose cache
// already holds the result, polls stay sticky to the accepting server
// (job IDs are server-local), and connect/5xx failures fail over to the
// next endpoint, ejecting repeat offenders until a probe re-admits
// them. Retries draw from a client-wide token budget so a fleet outage
// cannot amplify into a retry storm, idempotent GETs can be hedged
// against tail latency, and submissions propagate the caller's context
// deadline so servers shed work nobody is waiting for. Resubmission is
// safe by construction: cells are content-addressed and the simulator
// is deterministic, so re-running a cell produces byte-identical
// results, served from the daemon's cache when it already has them.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/jsondec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/stats"
)

// Options tunes the client. The zero value is usable.
type Options struct {
	// HTTPClient overrides the transport (default http.DefaultClient —
	// per-request timeouts come from RequestTimeout, not the transport).
	HTTPClient *http.Client

	// RequestTimeout bounds each individual HTTP attempt (default 30s).
	RequestTimeout time.Duration

	// MaxAttempts bounds the attempts per logical request, first try
	// included (default 8). Only transport errors, 429 and 5xx are
	// retried; 4xx responses are the caller's problem.
	MaxAttempts int

	// Backoff shapes the retry delays; BaseCycles/MaxCycles are read as
	// MILLISECONDS here (the manager itself is unit-agnostic). Default:
	// 50ms doubling to a 5s ceiling with 50% jitter. A Retry-After hint
	// from the server overrides the computed delay when larger.
	Backoff backoff.Config

	// Seed seeds the jitter source; 0 draws from the wall clock. Tests
	// pin it for reproducible retry timing.
	Seed uint64

	// HedgeDelay, when positive, arms hedged GETs: if an idempotent GET
	// has not answered after this long, a second copy is launched and
	// the first response wins. Default off — hedging doubles load under
	// pathological latency and must be opted into.
	HedgeDelay time.Duration

	// RetryBudget is the capacity of the client-wide retry token bucket
	// (default 64; first attempts are free, each retry costs a token).
	// RetryBudgetRefillPerSec restores tokens over time (default 8).
	RetryBudget             int
	RetryBudgetRefillPerSec float64

	// EjectAfter ejects an endpoint after this many consecutive
	// connect/5xx failures (default 3); ProbeAfter is how long it sits
	// out before one request is routed its way as a probe (default 2s).
	EjectAfter int
	ProbeAfter time.Duration

	// Priority is sent as X-ASF-Priority on submissions ("interactive"
	// or "batch"); empty means the server default (interactive).
	Priority string

	// Quorum, when >= 2, arms quorum verification for RunCell and
	// CollectMatrix: each cell is submitted to this many distinct fleet
	// endpoints and the result bytes must agree by content digest before
	// any are trusted. Determinism makes honest daemons byte-identical,
	// so a single lying or corrupted daemon is outvoted, flagged
	// (quorumDivergences/quorumEjections in Stats), and ejected on
	// repeat offense. Costs Quorum× the submissions; default 0 (off —
	// the single-endpoint path is untouched).
	Quorum int

	// Tracer, when non-nil, turns on request tracing: RunCell generates
	// one trace ID per cell (deterministic from Seed), sends it as
	// X-ASF-Trace so the serving daemon joins the trace, and records
	// the client's own side of the story — routing, failovers, RPC
	// attempts, hedge outcomes, retry-budget waits, resubmissions —
	// into this ring. Nil (the default) disables tracing entirely: no
	// header, no spans, no overhead.
	Tracer *obs.Tracer

	// now is the clock used for budget refill, latency EWMAs and
	// ejection timing; tests pin it. Nil means time.Now.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.Backoff.BaseCycles == 0 && o.Backoff.MaxCycles == 0 {
		o.Backoff = backoff.Config{BaseCycles: 50, MaxCycles: 5000, Jitter: 0.5}
	}
	if o.Seed == 0 {
		o.Seed = uint64(time.Now().UnixNano())
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 64
	}
	if o.RetryBudgetRefillPerSec <= 0 {
		o.RetryBudgetRefillPerSec = 8
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.ProbeAfter <= 0 {
		o.ProbeAfter = 2 * time.Second
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status int
	Msg    string

	// RetryAfter is the server's backpressure hint (zero when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("asfd: HTTP %d: %s", e.Status, e.Msg)
}

// Is makes errors.Is(err, ErrKeyPoisoned) match the daemon's 422
// breaker rejection, so callers can branch on the terminal verdict
// without inspecting status codes.
func (e *APIError) Is(target error) bool {
	return target == ErrKeyPoisoned && e.Status == http.StatusUnprocessableEntity
}

// ErrKeyPoisoned reports the daemon's circuit-breaker verdict (HTTP
// 422): this cell's content address has failed repeatedly and
// resubmitting it will keep failing deterministically. The client
// treats it as terminal — no retry, no failover, no budget spend —
// because every daemon in the fleet would compute the same result.
var ErrKeyPoisoned = errors.New("client: cell's content address tripped the daemon's failure breaker")

// ErrUnknownJob reports that the daemon does not know the polled job ID
// — typically because it crashed and its restarted incarnation
// compacted the job away, or because the ID was a cache hit, which is
// not persisted — or that the ID now names a different cell (a
// restarted daemon reissues IDs). RunCell reacts by resubmitting the
// cell, which is idempotent under content addressing.
var ErrUnknownJob = errors.New("client: job unknown to the daemon")

// ErrNoEndpoints reports a client constructed with an empty URL list.
var ErrNoEndpoints = errors.New("client: no endpoints configured")

// Client talks to one asfd daemon or a fleet of them. Safe for
// concurrent use.
type Client struct {
	endpoints []*endpoint
	opts      Options
	budget    *retryBudget
	stats     statsCounters
	ids       *obs.IDGen

	mu sync.Mutex
	bo *backoff.Manager
}

// New builds a client for the daemon(s) at baseURL — a single base like
// "http://127.0.0.1:8023", or several separated by commas to front a
// fleet.
func New(baseURL string, opts Options) *Client {
	opts = opts.withDefaults()
	var eps []*endpoint
	for _, raw := range strings.Split(baseURL, ",") {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			continue
		}
		eps = append(eps, &endpoint{base: base})
	}
	return &Client{
		endpoints: eps,
		opts:      opts,
		budget:    newRetryBudget(opts.RetryBudget, opts.RetryBudgetRefillPerSec, opts.now),
		bo:        backoff.New(opts.Backoff, rng.New(opts.Seed)),
		ids:       obs.NewIDGen(opts.Seed),
	}
}

// Tracer returns the client-side trace ring (nil when tracing is off).
func (c *Client) Tracer() *obs.Tracer { return c.opts.Tracer }

// nextTrace mints a trace ID for one logical operation, or "" when
// tracing is off.
func (c *Client) nextTrace() string {
	if c.opts.Tracer == nil {
		return ""
	}
	return c.ids.Next()
}

// cspan records one client-side span (no-op when untraced).
func (c *Client) cspan(trace, name string, start time.Time, d time.Duration, attrs ...string) {
	if c.opts.Tracer == nil || trace == "" {
		return
	}
	c.opts.Tracer.Record(trace, name, start, start.Add(d), attrs...)
}

// cevent records one instant client-side span (no-op when untraced).
func (c *Client) cevent(trace, name string, attrs ...string) {
	if c.opts.Tracer == nil || trace == "" {
		return
	}
	c.opts.Tracer.Event(trace, name, attrs...)
}

// Stats returns a snapshot of the client-side resilience counters.
func (c *Client) Stats() Stats { return c.stats.snapshot() }

// Endpoints returns the configured base URLs, in construction order.
func (c *Client) Endpoints() []string {
	out := make([]string, len(c.endpoints))
	for i, ep := range c.endpoints {
		out[i] = ep.base
	}
	return out
}

// delay computes the jittered backoff before retry attempt n (1-based),
// serialized because the jitter rng is stateful.
func (c *Client) delay(n int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.bo.Delay(n)) * time.Millisecond
}

func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// target selects how a request is routed. A non-nil ep pins the request
// to one endpoint with no failover (polls: job IDs are server-local, so
// asking a different server is guaranteed nonsense). Otherwise key, when
// set, orders endpoints by rendezvous hash (submissions: land the cell
// where its cached result lives); empty key uses the same stable order
// for all keyless requests.
type target struct {
	ep  *endpoint
	key string

	// trace, when set, joins the request to a trace: it rides the
	// X-ASF-Trace header and client-side spans record under it.
	trace string
}

// candidates returns the endpoint preference order for a request.
func (c *Client) candidates(tgt target) []*endpoint {
	if tgt.ep != nil {
		return []*endpoint{tgt.ep}
	}
	return rank(c.endpoints, tgt.key)
}

// pick chooses the attempt's endpoint: the first candidate that is
// available, has not already failed this request, and did not last
// identify as a warm standby (a follower answers every submission with
// 503, so routing there wastes an attempt). Followers are demoted, not
// excluded — with every primary failed or ejected the request still
// goes somewhere, because a follower may have been promoted since it
// last answered, and a guess beats a guaranteed local error. Once every
// candidate has failed this request a new round begins: a transient
// fault on each live endpoint must not pin the remaining attempts to a
// dead one. Skipping the preferred candidate counts as a failover.
func (c *Client) pick(candidates []*endpoint, failed map[*endpoint]bool) *endpoint {
	if len(failed) == len(candidates) {
		clear(failed)
	}
	now := c.opts.now()
	chosen := candidates[0]
	found := false
	for _, ep := range candidates {
		if !failed[ep] && ep.available(now) && !ep.isFollower() {
			chosen, found = ep, true
			break
		}
	}
	if !found {
		for _, ep := range candidates {
			if !failed[ep] && ep.available(now) {
				chosen, found = ep, true
				break
			}
		}
	}
	if !found {
		for _, ep := range candidates {
			if !failed[ep] {
				chosen = ep
				break
			}
		}
	}
	if chosen != candidates[0] {
		c.stats.add(func(s *Stats) { s.Failovers++ })
		if candidates[0].isFollower() && !failed[candidates[0]] {
			c.stats.add(func(s *Stats) { s.FollowerSkips++ })
		}
	}
	return chosen
}

// request performs one logical request against the pool: per-attempt
// timeouts, budgeted retries with jittered backoff (stretched to any
// Retry-After hint), failover across endpoints on transport/5xx
// failures, and hedging for GETs when armed. A 2xx body is decoded into
// out (when non-nil, and pointing at a zero value, as jsondec requires);
// any other final status comes back as *APIError.
// Returns the endpoint that served the successful response so callers
// can stay sticky to it.
func (c *Client) request(ctx context.Context, method, path string, body []byte, out any, tgt target) (*endpoint, error) {
	if len(c.endpoints) == 0 {
		return nil, ErrNoEndpoints
	}
	candidates := c.candidates(tgt)
	if tgt.ep == nil {
		c.cevent(tgt.trace, "route", "preferred", candidates[0].base, "key", tgt.key)
	}
	failed := make(map[*endpoint]bool)
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.budget.take() {
				c.stats.add(func(s *Stats) { s.RetryBudgetExhausted++ })
				c.cevent(tgt.trace, "retry.exhausted", "method", method, "path", path)
				return nil, fmt.Errorf("%w: %s %s: last error: %v", ErrRetryBudgetExhausted, method, path, lastErr)
			}
			c.stats.add(func(s *Stats) { s.RetriesSpent++ })
			delay := c.delay(attempt)
			if hint > delay {
				delay = hint
			}
			waitStart := c.opts.now()
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			c.cspan(tgt.trace, "retry.wait", waitStart, c.opts.now().Sub(waitStart),
				"attempt", strconv.Itoa(attempt), "path", path)
		}
		hint = 0
		ep := c.pick(candidates, failed)
		if ep != candidates[0] {
			c.cevent(tgt.trace, "failover", "to", ep.base, "path", path)
		}
		start := c.opts.now()
		var status int
		var data []byte
		var err error
		if method == http.MethodGet {
			status, data, err = c.hedgedGet(ctx, ep, path, tgt.trace)
		} else {
			status, data, err = c.once(ctx, method, ep, path, body, tgt.trace)
		}
		if err != nil {
			c.cspan(tgt.trace, "rpc", start, c.opts.now().Sub(start),
				"method", method, "path", path, "endpoint", ep.base, "err", err.Error())
		} else {
			c.cspan(tgt.trace, "rpc", start, c.opts.now().Sub(start),
				"method", method, "path", path, "endpoint", ep.base, "status", strconv.Itoa(status))
		}
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			failed[ep] = true
			if ep.noteFailure(c.opts.now(), c.opts.EjectAfter, c.opts.ProbeAfter) {
				c.stats.add(func(s *Stats) { s.EndpointEjections++ })
			}
		case status >= 200 && status < 300:
			ep.noteSuccess(c.opts.now().Sub(start))
			if out == nil {
				return ep, nil
			}
			return ep, jsondec.Unmarshal(data, out)
		default:
			apiErr := decodeAPIError(status, data)
			lastErr = apiErr
			if status >= 500 {
				// The server is broken; spread subsequent attempts.
				failed[ep] = true
				if ep.noteFailure(c.opts.now(), c.opts.EjectAfter, c.opts.ProbeAfter) {
					c.stats.add(func(s *Stats) { s.EndpointEjections++ })
				}
			} else {
				// 429 is backpressure from a healthy server: it answered,
				// and the right reaction is to wait, not to route away.
				ep.noteSuccess(c.opts.now().Sub(start))
			}
			if !retryableStatus(status) {
				return ep, apiErr
			}
			hint = apiErr.RetryAfter
		}
	}
	return nil, fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, c.opts.MaxAttempts, lastErr)
}

// decodeAPIError turns a non-2xx body into *APIError, reading the
// structured envelope's error string and retryAfterSeconds hint when
// present and falling back to the raw body when not.
func decodeAPIError(status int, data []byte) *APIError {
	var er struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	json.Unmarshal(data, &er)
	if er.Error == "" {
		er.Error = strings.TrimSpace(string(data))
	}
	return &APIError{
		Status:     status,
		Msg:        er.Error,
		RetryAfter: time.Duration(er.RetryAfterSeconds) * time.Second,
	}
}

// hedgedGet is the GET attempt path. With hedging off it is a single
// request. With hedging armed, a second copy launches on the same
// endpoint if the first has not answered within HedgeDelay, and the
// first response wins (same endpoint on purpose: job reads are
// server-local, and the tail being hedged against is the network path,
// which chaos testing perturbs per-connection).
func (c *Client) hedgedGet(ctx context.Context, ep *endpoint, path string, trace string) (int, []byte, error) {
	if c.opts.HedgeDelay <= 0 {
		return c.once(ctx, http.MethodGet, ep, path, nil, trace)
	}
	type result struct {
		status int
		data   []byte
		err    error
		hedge  bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	launch := func(hedge bool) {
		go func() {
			st, d, err := c.once(hctx, http.MethodGet, ep, path, nil, trace)
			ch <- result{st, d, err, hedge}
		}()
	}
	primaryStart := c.opts.now()
	launch(false)
	timer := time.NewTimer(c.opts.HedgeDelay)
	defer timer.Stop()
	inFlight := 1
	hedged := false
	var hedgeStart time.Time
	var firstErr *result
	for {
		select {
		case r := <-ch:
			inFlight--
			if r.err == nil {
				if r.hedge {
					c.stats.add(func(s *Stats) { s.HedgeWins++ })
				}
				if hedged {
					// A race was actually run: record both sides — the
					// winner as a timed span, the loser (abandoned
					// in-flight) as an instant.
					winStart, winRole, loseRole := primaryStart, "primary", "hedge"
					if r.hedge {
						winStart, winRole, loseRole = hedgeStart, "hedge", "primary"
					}
					c.cspan(trace, "hedge.win", winStart, c.opts.now().Sub(winStart),
						"role", winRole, "path", path)
					c.cevent(trace, "hedge.lose", "role", loseRole, "path", path)
				}
				return r.status, r.data, nil
			}
			if firstErr == nil {
				firstErr = &r
			}
			if inFlight == 0 {
				if hedged {
					return firstErr.status, firstErr.data, firstErr.err
				}
				// Primary failed fast, before the hedge armed: that is
				// failover/retry territory, not tail latency.
				return r.status, r.data, r.err
			}
		case <-timer.C:
			hedged = true
			inFlight++
			c.stats.add(func(s *Stats) { s.HedgesLaunched++ })
			hedgeStart = c.opts.now()
			launch(true)
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
}

// once performs a single HTTP attempt against one endpoint. The
// caller's context deadline (read before the per-attempt timeout is
// layered on) propagates as X-ASF-Deadline so the server can shed work
// whose requester will have given up.
func (c *Client) once(ctx context.Context, method string, ep *endpoint, path string, body []byte, trace string) (int, []byte, error) {
	deadline, hasDeadline := ctx.Deadline()
	actx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, ep.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hasDeadline {
		req.Header.Set("X-ASF-Deadline", deadline.Format(time.RFC3339Nano))
	}
	if c.opts.Priority != "" {
		req.Header.Set("X-ASF-Priority", c.opts.Priority)
	}
	if trace != "" {
		req.Header.Set("X-ASF-Trace", trace)
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// Every asfd response advertises its replication role; remember it
	// so routing steers submissions away from warm standbys.
	ep.noteRole(resp.Header.Get("X-ASF-Role"))
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// affinity is the rendezvous routing key for a cell: a stable encoding
// of the request fields that determine its content address, so every
// client maps the same cell to the same server.
func affinity(req service.JobRequest) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d", req.Workload, req.Detection, req.Scale, req.Seed, req.Cores)
}

// Submit submits one cell and returns its accepted job view (state
// "queued", or "done" immediately on a cache hit). Queue-full responses
// are retried with backoff; validation errors and breaker rejections
// (422) are returned as *APIError.
func (c *Client) Submit(ctx context.Context, req service.JobRequest) (service.JobView, error) {
	view, _, err := c.submit(ctx, req, c.nextTrace())
	return view, err
}

// submit is Submit plus the endpoint that accepted the job, which polls
// must stay sticky to.
func (c *Client) submit(ctx context.Context, req service.JobRequest, trace string) (service.JobView, *endpoint, error) {
	body, err := json.Marshal(service.SubmitRequest{JobRequest: req})
	if err != nil {
		return service.JobView{}, nil, err
	}
	var resp service.SubmitResponse
	ep, err := c.request(ctx, http.MethodPost, "/v1/jobs", body, &resp, target{key: affinity(req), trace: trace})
	if err != nil {
		return service.JobView{}, nil, err
	}
	if len(resp.Jobs) != 1 {
		return service.JobView{}, nil, fmt.Errorf("client: daemon accepted %d jobs for one cell", len(resp.Jobs))
	}
	return resp.Jobs[0], ep, nil
}

// Job fetches one job's current view. An unknown ID is ErrUnknownJob.
func (c *Client) Job(ctx context.Context, id string) (service.JobView, error) {
	return c.jobOn(ctx, nil, id, 0, "")
}

// jobOn polls a job on a specific endpoint (nil = default routing; with
// one endpoint the two are the same). A positive wait long-polls: the
// daemon holds the answer until the job is terminal or wait expires.
func (c *Client) jobOn(ctx context.Context, ep *endpoint, id string, wait time.Duration, trace string) (service.JobView, error) {
	path := "/v1/jobs/" + id
	if ms := wait.Milliseconds(); ms > 0 {
		path += "?wait=" + strconv.FormatInt(ms, 10)
	}
	var view service.JobView
	_, err := c.request(ctx, http.MethodGet, path, nil, &view, target{ep: ep, trace: trace})
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		return view, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return view, err
}

// Jobs lists the daemon's retained jobs, optionally filtered by state
// (results are omitted from listings; poll the job for its record).
func (c *Client) Jobs(ctx context.Context, state service.JobState) ([]service.JobView, error) {
	path := "/v1/jobs"
	if state != "" {
		path += "?state=" + string(state)
	}
	var resp service.JobListResponse
	if _, err := c.request(ctx, http.MethodGet, path, nil, &resp, target{}); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Cancel aborts a queued or running job and returns its resulting view.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobView, error) {
	var view service.JobView
	_, err := c.request(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &view, target{})
	return view, err
}

// Metrics fetches a daemon's counter document.
func (c *Client) Metrics(ctx context.Context) (service.MetricsSnapshot, error) {
	var snap service.MetricsSnapshot
	_, err := c.request(ctx, http.MethodGet, "/metrics", nil, &snap, target{})
	return snap, err
}

// Health fetches a daemon's liveness document (draining/degraded
// flags, queue depth, in-flight count and admission limit).
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var h service.Health
	_, err := c.request(ctx, http.MethodGet, "/healthz", nil, &h, target{})
	return h, err
}

// Wait long-polls a job until it reaches a terminal state.
// ErrUnknownJob surfaces immediately so the caller can resubmit.
func (c *Client) Wait(ctx context.Context, id string) (service.JobView, error) {
	return c.waitOn(ctx, nil, service.JobView{ID: id}, "")
}

func terminal(st service.JobState) bool {
	return st == service.JobDone || st == service.JobFailed || st == service.JobCanceled
}

// waitOn is Wait pinned to the endpoint that accepted the job, starting
// from the view the submission returned: a terminal view is returned as
// is, with no request. Each poll asks the daemon to hold its answer for
// half a request timeout (less if ctx ends sooner); a non-terminal
// answer after the full wait is re-polled at once. One that comes back
// early means the daemon is stopping, so the next poll waits a backoff
// delay first. A polled view naming a different cell than the submitted
// one means a restarted daemon reissued the ID: that is ErrUnknownJob.
func (c *Client) waitOn(ctx context.Context, ep *endpoint, view service.JobView, trace string) (service.JobView, error) {
	early := 0
	for !terminal(view.State) {
		wait := c.opts.RequestTimeout / 2
		if dl, ok := ctx.Deadline(); ok {
			wait = min(wait, time.Until(dl))
		}
		sent := time.Now()
		polled, err := c.jobOn(ctx, ep, view.ID, wait, trace)
		if err != nil {
			return polled, err
		}
		if view.Key != "" && polled.Key != view.Key {
			return polled, fmt.Errorf("%w: %s now names another cell", ErrUnknownJob, view.ID)
		}
		view = polled
		if terminal(view.State) || time.Since(sent) >= wait {
			early = 0
			continue
		}
		early++
		select {
		case <-time.After(c.delay(early)):
		case <-ctx.Done():
			return view, ctx.Err()
		}
	}
	return view, nil
}

// RunCell runs one cell to completion: submit, wait, decode — one
// request for a cache hit, a submit and a long-poll for a miss. If the
// serving daemon forgets the job mid-wait (crash + restart compacted it
// away, or reissued its ID) or stops answering entirely (killed; the
// poll is sticky, so exhausted retries mean the server is gone, not
// slow), the cell is resubmitted — idempotent under content
// addressing, and routed around the dead endpoint — up to MaxAttempts
// times. A job that ends "failed" or "canceled" is an error carrying
// the daemon's structured error string.
func (c *Client) RunCell(ctx context.Context, req service.JobRequest) (*stats.Record, error) {
	rec, _, err := c.RunCellTraced(ctx, req)
	return rec, err
}

// RunCellTraced is RunCell plus the trace ID the cell ran under, so a
// caller can fetch the server-side spans afterwards (ServerTrace).
// The ID is empty when tracing is off.
func (c *Client) RunCellTraced(ctx context.Context, req service.JobRequest) (*stats.Record, string, error) {
	trace := c.nextTrace()
	rec, err := c.runCell(ctx, req, trace)
	return rec, trace, err
}

func (c *Client) runCell(ctx context.Context, req service.JobRequest, trace string) (*stats.Record, error) {
	if c.quorumArmed() {
		return c.runCellQuorum(ctx, req, trace)
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.add(func(s *Stats) { s.Resubmissions++ })
			c.cevent(trace, "resubmit",
				"attempt", strconv.Itoa(attempt), "cell", affinity(req))
		}
		view, ep, err := c.submit(ctx, req, trace)
		if err != nil {
			return nil, err
		}
		view, err = c.waitOn(ctx, ep, view, trace)
		if errors.Is(err, ErrUnknownJob) {
			lastErr = err
			continue // daemon restarted underneath us; resubmit
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, ErrRetryBudgetExhausted) {
				return nil, err
			}
			var ae *APIError
			if errors.As(err, &ae) && !retryableStatus(ae.Status) {
				return nil, err
			}
			lastErr = err
			continue // endpoint died mid-poll; resubmit elsewhere
		}
		switch view.State {
		case service.JobDone:
			var rec stats.Record
			if err := jsondec.Unmarshal(view.Result, &rec); err != nil {
				return nil, fmt.Errorf("client: decoding result for %s: %w", view.ID, err)
			}
			return &rec, nil
		case service.JobCanceled:
			return nil, fmt.Errorf("client: job %s canceled: %s", view.ID, view.Error)
		default:
			return nil, fmt.Errorf("client: job %s failed (%s): %s", view.ID, view.ErrorKind, view.Error)
		}
	}
	return nil, fmt.Errorf("client: cell never completed after %d submissions: %w", c.opts.MaxAttempts, lastErr)
}

// ServerTrace fetches the server-side spans for a trace ID across the
// whole fleet and merges them in start-time order. A job's spans live
// on whichever daemon(s) served it — after failover or resubmission
// that can be more than one — so every endpoint is asked and 404s
// (daemon holds no spans for this trace) are skipped. An error is
// returned only when no endpoint had spans: the last fetch error if
// any, else a not-found.
func (c *Client) ServerTrace(ctx context.Context, id string) (service.TraceResponse, error) {
	merged := service.TraceResponse{Trace: id}
	var lastErr error
	for _, ep := range c.endpoints {
		var tr service.TraceResponse
		if _, err := c.request(ctx, http.MethodGet, "/v1/traces/"+id, nil, &tr, target{ep: ep}); err != nil {
			var ae *APIError
			if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
				continue
			}
			lastErr = err
			continue
		}
		merged.Spans = append(merged.Spans, tr.Spans...)
	}
	if len(merged.Spans) == 0 {
		if lastErr != nil {
			return merged, lastErr
		}
		return merged, fmt.Errorf("client: no spans retained for trace %s", id)
	}
	sort.SliceStable(merged.Spans, func(i, j int) bool {
		return merged.Spans[i].Start.Before(merged.Spans[j].Start)
	})
	return merged, nil
}
