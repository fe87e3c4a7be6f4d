package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/replica"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// mix selects a served workload's traffic.
type mix int

const (
	// mixCold: every request is a never-seen ScaleTiny cell, so every
	// layer of the serving path runs, execute included.
	mixCold mix = iota
	// mixWarm: every request is a uniformly random settled cell — all
	// cache hits, nothing simulated.
	mixWarm
	// mixMixed: a seeded coin makes each request a settled cell with
	// probability 0.9 and a never-seen one otherwise.
	mixMixed
)

var mixNames = map[mix]string{mixCold: "serve_cold", mixWarm: "serve_warm", mixMixed: "serve_mixed"}

const (
	// callers is the closed-loop client count: each caller waits for its
	// cell before sending the next, like paperfigs -server and
	// CollectMatrix do. Two callers and two workers match a 2-CPU host.
	callers = 2
	workers = 2

	// fillCallers bounds the cells in flight while filling the cache;
	// it stays under asfd's default queue depth of 64.
	fillCallers = 32

	// hitShare is serve_mixed's probability that a request is a settled
	// cell.
	hitShare = 0.9

	// workPrefix is how many leading requests of a served window make up
	// its fixed work set.
	workPrefix = 200

	// freshBase spaces never-seen simulator seeds away from the fill
	// seeds: benchmark seed s issues fresh cells from s×freshBase up.
	freshBase = 1_000_000
)

// freshCell is never-seen request i (i ≥ 0) of a window: kernels and
// detections round-robin, each with its own simulator seed.
func freshCell(seed uint64, i int) cell {
	kernels := asfsim.Workloads()
	return cell{
		Workload:  kernels[i%len(kernels)],
		Detection: asfsim.Detections[(i/len(kernels))%len(asfsim.Detections)],
		Scale:     workloads.ScaleTiny,
		Seed:      seed*freshBase + 1000 + uint64(i),
	}
}

type served struct {
	p       params
	mix     mix
	name    string
	settled []cell // the cache fill (serve_warm, serve_mixed)
	chk     *checker
}

// cellAt is request i of the window; a pure function of the benchmark
// seed and i.
func (s *served) cellAt(i int) cell {
	switch {
	case s.mix == mixCold:
		return freshCell(s.p.seed, i)
	case s.mix == mixMixed && draw(s.p.seed, i, 1) >= hitShare:
		return freshCell(s.p.seed, i)
	}
	return s.settled[int(draw(s.p.seed, i, 2)*float64(len(s.settled)))]
}

// warmups are the untimed set-up cells, one per kernel, of the kind the
// window sends: settled on serve_warm, never-seen otherwise.
func (s *served) warmups() []cell {
	var out []cell
	for k, wl := range asfsim.Workloads() {
		c := cell{wl, asfsim.DetectBaseline, workloads.ScaleTiny, s.p.seed*freshBase + uint64(k)}
		if s.mix == mixWarm {
			c.Seed = s.p.seed
		}
		out = append(out, c)
	}
	return out
}

// daemon is an in-process asfd: the service with its write-ahead
// journal and cache snapshot in a private directory (the crash-safe
// deployment), behind a loopback HTTP server.
type daemon struct {
	cfg    service.Config
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

func daemonConfig(dir string) service.Config {
	return service.Config{
		Workers:      workers,
		JournalPath:  filepath.Join(dir, "journal.wal"),
		SnapshotPath: filepath.Join(dir, "cache.json"),
	}
}

func startDaemon(cfg service.Config) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{cfg: cfg, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and then the service down gracefully: the
// service drains, writes its snapshot and compacts its journal.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// runServed runs one of the served workloads.
func runServed(p params, m mix) (*runRecord, error) {
	ledger, err := loadLedger()
	if err != nil {
		return nil, err
	}
	s := &served{p: p, mix: m, name: mixNames[m], chk: newChecker(ledger)}
	if m != mixCold {
		s.settled = matrixCells(workloads.ScaleTiny, seedRange(p.seed, p.fillSeeds))
	}
	root, err := os.MkdirTemp("", "bench-"+s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	o := &outcome{perLayer: make(map[string]float64)}

	// Set up from scratch p.setups times, keep the last daemon, and
	// report the median as setup_s. A filled daemon is set up once: its
	// set-up is a 1 020-cell simulation (about 5 s on two cores) that
	// repeats closely on its own, and three of them per run would not
	// fit the benchmark's time budget.
	setups := p.setups
	if s.settled != nil {
		setups = 1
	}
	var d *daemon
	var cl *client.Client
	var ct *countingTransport
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		dir := filepath.Join(root, fmt.Sprintf("primary-%d", k))
		if d, cl, ct, err = s.setup(dir); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
	}
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	var m0 service.MetricsSnapshot
	var c0 client.Stats
	var prof *cpuProfile
	if p.trace {
		if m0, err = fetchMetrics(d.url); err != nil {
			d.stop()
			return nil, err
		}
		c0 = cl.Stats()
		if prof, err = startCPUProfile(p.traceDir, s.name); err != nil {
			d.stop()
			return nil, err
		}
	}
	sleep := s.window(cl, ct, o)
	if p.trace {
		cells := len(o.latencies)
		if err := prof.stop(cells, o.perLayer); err != nil {
			d.stop()
			return nil, err
		}
		m1, err := fetchMetrics(d.url)
		if err != nil {
			d.stop()
			return nil, err
		}
		serviceMetrics(m0, m1, cells, o.perLayer)
		clientMetrics(ct, c0, cl.Stats(), sleep, cells, o.perLayer)
		simPerLayer(o.work, o.perLayer)
		if err := o.spans.writeJSONL(filepath.Join(p.traceDir, s.name+".spans.jsonl")); err != nil {
			d.stop()
			return nil, err
		}
	}

	o.resampled = s.chk.verifySample(p.seed, p.sample)
	if p.trace && m == mixWarm {
		if err := s.recovery(d, root, o.perLayer); err != nil {
			return nil, err
		}
	} else if err := d.stop(); err != nil {
		return nil, err
	}
	return o.record(s.name, p, s.chk), nil
}

// setup boots a daemon in dir, fills its cache (serve_warm,
// serve_mixed) and runs the warm-up cells through a fresh client.
func (s *served) setup(dir string) (*daemon, *client.Client, *countingTransport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	d, err := startDaemon(daemonConfig(dir))
	if err != nil {
		return nil, nil, nil, err
	}
	// Default options with a pinned jitter seed. The traced run counts
	// round trips with its own transport; the untraced run uses the
	// default client.
	opts := client.Options{Seed: s.p.seed}
	var ct *countingTransport
	if s.p.trace {
		ct = &countingTransport{base: http.DefaultTransport}
		opts.HTTPClient = &http.Client{Transport: ct}
	}
	cl := client.New(d.url, opts)
	if err := s.settle(cl, s.settled, fillCallers); err != nil {
		d.stop()
		return nil, nil, nil, fmt.Errorf("cache fill: %w", err)
	}
	if err := s.settle(cl, s.warmups(), callers); err != nil {
		d.stop()
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, cl, ct, nil
}

// settle runs cells to completion through cl, conc at a time, checking
// every result.
func (s *served) settle(cl *client.Client, cells []cell, conc int) error {
	errs := make([]error, len(cells))
	parallel(len(cells), conc, func(i int) {
		rec, err := cl.RunCell(context.Background(), cells[i].request())
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", cells[i].label(), err)
			return
		}
		s.chk.check(cells[i], digestOf(rec))
	})
	return errors.Join(errs...)
}

// window drives the timed closed loop: callers goroutines each take the
// next request index, run that cell and check its result, until the
// window closes. Requests in flight at the close finish and count. A
// traced window returns the RunCell wall time not spent in round trips.
func (s *served) window(cl *client.Client, ct *countingTransport, o *outcome) (sleep time.Duration) {
	start := time.Now()
	deadline := start.Add(s.p.window)
	if s.p.trace {
		o.spans = newSpanLog(start)
		ct.spans = o.spans
	}
	var next atomic.Int64
	lat := make([][]time.Duration, callers)
	failed := make([]int, callers)
	sleeps := make([]time.Duration, callers)
	prefix := make([]*stats.Record, workPrefix)
	prefixDigest := make([]string, workPrefix)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				want := s.cellAt(i)
				ctx := context.Background()
				var tr *cellTrace
				if o.spans != nil {
					tr = &cellTrace{trace: int64(i), span: o.spans.newID()}
					ctx = context.WithValue(ctx, cellTraceKey{}, tr)
				}
				t0 := time.Now()
				rec, err := cl.RunCell(ctx, want.request())
				t1 := time.Now()
				if tr != nil {
					o.spans.add(tr.trace, tr.span, 0, "client.RunCell", t0, t1)
					sleeps[c] += t1.Sub(t0) - time.Duration(tr.rtt.Load())
				}
				if err != nil {
					failed[c]++
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", want.label(), err)
					continue
				}
				lat[c] = append(lat[c], t1.Sub(t0))
				d := digestOf(rec)
				s.chk.check(want, d)
				if i < workPrefix {
					prefix[i], prefixDigest[i] = rec, d
				}
			}
		}(c)
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	o.attempted = int(next.Load())
	for c := 0; c < callers; c++ {
		o.latencies = append(o.latencies, lat[c]...)
		o.failedCalls += failed[c]
		sleep += sleeps[c]
	}
	var acc workAcc
	for i := 0; i < workPrefix && i < o.attempted; i++ {
		if prefix[i] != nil {
			acc.add(prefix[i], prefixDigest[i])
		}
	}
	o.work = acc.result()
	return sleep
}

// fetchMetrics reads the daemon's GET /metrics document directly, so the
// read is not counted as client traffic.
func fetchMetrics(url string) (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// serviceMetrics fills the service.* metrics from two /metrics
// documents. Stage times are exact means (summed microseconds over
// observations); the histogram percentiles are power-of-two bucket
// bounds and are not used.
func serviceMetrics(m0, m1 service.MetricsSnapshot, cells int, into map[string]float64) {
	for _, st := range serviceStages {
		a, b := m0.StageLatencyMs[st], m1.StageLatencyMs[st]
		if n := b.Count - a.Count; n > 0 {
			sum := b.MeanMs*float64(b.Count) - a.MeanMs*float64(a.Count)
			into["service."+st+"_ms"] = sum / float64(n)
		}
	}
	journal := m1.StageLatencyMs["journal"].Count - m0.StageLatencyMs["journal"].Count
	into["service.journal_appends_per_cell"] = perCell(float64(journal), cells)
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	if hits+misses > 0 {
		into["service.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if misses > 0 {
		into["service.runs_per_miss"] = float64(m1.RunsExecuted-m0.RunsExecuted) / float64(misses)
	}
}

// clientMetrics fills the client.* metrics from the counting transport
// and the client's own resilience counters.
func clientMetrics(ct *countingTransport, c0, c1 client.Stats, sleep time.Duration, cells int, into map[string]float64) {
	submits, polls := ct.submits.Load(), ct.polls.Load()
	into["client.http_per_cell"] = perCell(float64(submits+polls), cells)
	if submits > 0 {
		into["client.submit_rtt_ms"] = float64(ct.submitNs.Load()) / float64(submits) / 1e6
	}
	if polls > 0 {
		into["client.poll_rtt_ms"] = float64(ct.pollNs.Load()) / float64(polls) / 1e6
	}
	into["client.poll_sleep_ms"] = perCell(float64(sleep)/1e6, cells)
	into["client.retries_per_1k"] = perCell(1000*float64(c1.RetriesSpent-c0.RetriesSpent), cells)
	into["client.resubmissions_per_1k"] = perCell(1000*float64(c1.Resubmissions-c0.Resubmissions), cells)
}

// recovery times p.recovery warm-standby catch-ups against the filled
// primary d, then stops d gracefully and times p.recovery restarts from
// its snapshot and journal. Each must end holding exactly the settled
// cells.
func (s *served) recovery(d *daemon, root string, into map[string]float64) error {
	keys := make(map[string]bool, len(s.settled))
	for _, c := range s.settled {
		keys[service.Key(c.spec())] = true
	}
	var catchups, restarts []float64
	for k := 0; k < s.p.recovery; k++ {
		ms, err := catchup(d.url, filepath.Join(root, fmt.Sprintf("follower-%d", k)), keys)
		if err != nil {
			d.stop()
			return fmt.Errorf("follower catch-up: %w", err)
		}
		catchups = append(catchups, ms)
	}
	if err := d.stop(); err != nil {
		return err
	}
	for k := 0; k < s.p.recovery; k++ {
		start := time.Now()
		srv, err := service.New(d.cfg)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		ms := float64(time.Since(start)) / 1e6
		n := srv.Cache().Len()
		if err := srv.Shutdown(context.Background()); err != nil {
			return err
		}
		if n != len(keys) {
			return fmt.Errorf("restart recovered %d cache entries, want %d", n, len(keys))
		}
		restarts = append(restarts, ms)
	}
	into["service.restart_ms"] = median(restarts)
	into["replica.catchup_ms"] = median(catchups)
	return nil
}

// catchup boots an empty warm standby in dir, starts replicating from
// primaryURL, and returns the milliseconds until it holds every key and
// reports no replication lag.
func catchup(primaryURL, dir string, keys map[string]bool) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	cfg := daemonConfig(dir)
	cfg.Following = true
	fsrv, err := service.New(cfg)
	if err != nil {
		return 0, err
	}
	defer fsrv.Shutdown(context.Background())
	start := time.Now()
	f, err := replica.Start(replica.Config{PrimaryURL: primaryURL, Server: fsrv})
	if err != nil {
		return 0, err
	}
	defer f.Stop()
	for !holdsAll(fsrv, keys) || fsrv.ReplicationLag() != 0 {
		if time.Since(start) > time.Minute {
			return 0, fmt.Errorf("follower did not catch up within a minute (last error: %v)", f.Err())
		}
		time.Sleep(time.Millisecond)
	}
	return float64(time.Since(start)) / 1e6, nil
}

func holdsAll(srv *service.Server, keys map[string]bool) bool {
	if srv.Cache().Len() < len(keys) {
		return false
	}
	held := 0
	for _, k := range srv.Cache().Keys() {
		if keys[k] {
			held++
		}
	}
	return held == len(keys)
}
