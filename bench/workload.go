package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// processStart approximates the moment the process started: package
// variables initialise before main runs. setup_s is timed from here.
var processStart = time.Now()

// params sizes one run. Command-line runs use defaultParams; the smoke
// test shrinks the set-up so that all four workloads finish in seconds.
type params struct {
	seed     uint64
	window   time.Duration
	trace    bool
	traceDir string

	setups     int             // set-ups per run; setup_s is their median
	fillSeeds  int             // seeds per (kernel, detection) in the warm fill
	localScale workloads.Scale // scale of the paper_matrix_local cells
	sample     int             // unledgered served cells re-run locally
	recovery   int             // restarts and followers timed on serve_warm (traced)
}

func defaultParams(seed uint64, seconds int, trace bool, traceDir string) params {
	return params{
		seed:       seed,
		window:     time.Duration(seconds) * time.Second,
		trace:      trace,
		traceDir:   traceDir,
		setups:     3,
		fillSeeds:  defaultFillSeeds,
		localScale: workloads.ScaleSmall,
		sample:     20,
		recovery:   5,
	}
}

// workloadNames lists the benchmark's workloads; BENCHMARK.json says why
// each exists.
var workloadNames = []string{"paper_matrix_local", "serve_cold", "serve_warm", "serve_mixed"}

func runWorkload(name string, p params) (*runRecord, error) {
	switch name {
	case "paper_matrix_local":
		return runLocal(p)
	case "serve_cold":
		return runServed(p, mixCold)
	case "serve_warm":
		return runServed(p, mixWarm)
	case "serve_mixed":
		return runServed(p, mixMixed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees; every run
// computes them, and an untraced run prints them.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p95", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerDefs are the traced run's metrics. A metric that does not
// apply to a workload (a served-path counter on the local matrix, say)
// reads 0 there.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"client.http_per_cell", "count/cell"},
		{"client.submit_rtt_ms", "ms"},
		{"client.poll_rtt_ms", "ms"},
		{"client.poll_sleep_ms", "ms"},
		{"client.retries_per_1k", "count/1k"},
		{"client.resubmissions_per_1k", "count/1k"},
	}
	for _, st := range serviceStages {
		defs = append(defs, metricDef{"service." + st + "_ms", "ms"})
	}
	defs = append(defs, []metricDef{
		{"service.journal_appends_per_cell", "count/cell"},
		{"service.hit_ratio", "ratio"},
		{"service.runs_per_miss", "ratio"},
		{"service.restart_ms", "ms"},
		{"replica.catchup_ms", "ms"},
		{"run.workload_build_ms", "ms"},
		{"run.machine_reset_ms", "ms"},
		{"run.machine_builds", "count/cell"},
		{"run.execute_ms", "ms"},
		{"run.execute_ns_per_sim_cycle", "ns"},
		{"sim.cycles_per_cell", "cycles/cell"},
		{"sim.tx_attempts_per_cell", "count/cell"},
		{"sim.spec_accesses_per_cell", "count/cell"},
		{"sim.bus_msgs_per_cell", "count/cell"},
	}...)
	for _, c := range cpuCategories {
		defs = append(defs, metricDef{"cpu." + c + "_share", "ratio"}, metricDef{"cpu." + c + "_ms_per_cell", "ms/cell"})
	}
	return append(defs, []metricDef{
		{"traced.cells_per_s", "cells/s"},
		{"traced.cell_ms_p50", "ms"},
		{"traced.cell_ms_p95", "ms"},
	}...)
}()

// serviceStages are the asfd pipeline stages whose mean time the traced
// run reports, from deltas of GET /metrics.
var serviceStages = []string{"admission", "queue", "cache", "journal", "execute", "respond"}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run measured. The printed result line is
// cut from it; -o files keep all of it.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Checked    int                    `json:"checked"`   // results compared with the ledger or an earlier copy
	Resampled  int                    `json:"resampled"` // served cells re-run locally after the window
	Mismatches []string               `json:"mismatches,omitempty"`
	Samples    int                    `json:"samples"`           // latency samples behind the percentiles
	MatrixS    []float64              `json:"matrixS,omitempty"` // paper_matrix_local: wall time of each 180-cell pass
	EndToEnd   map[string]Metric      `json:"endToEnd"`
	PerLayer   map[string]Metric      `json:"perLayer,omitempty"`
	Work       work                   `json:"work"`
	Spans      map[string]spanSummary `json:"spans,omitempty"`
}

// work is the simulated work behind a fixed, seed-determined set of
// cells: a whole matrix pass on paper_matrix_local, the first
// workPrefix requests on the served workloads. It must repeat exactly
// between two runs of one seed on any commit that keeps results intact.
type work struct {
	Cells        int    `json:"cells"`
	Cycles       uint64 `json:"cycles"`
	TxAttempts   uint64 `json:"txAttempts"`
	SpecAccesses uint64 `json:"specAccesses"`
	BusMsgs      uint64 `json:"busMsgs"`
	Digest       string `json:"digest"` // SHA-256 over the cells' result digests, in order
}

type workAcc struct {
	w work
	h hash.Hash
}

func (a *workAcc) add(rec *stats.Record, digest string) {
	if a.h == nil {
		a.h = sha256.New()
	}
	a.w.Cells++
	a.w.Cycles += uint64(rec.Cycles)
	a.w.TxAttempts += rec.TxStarted
	a.w.SpecAccesses += rec.SpecLoads + rec.SpecStores
	a.w.BusMsgs += rec.ProbesShared + rec.ProbesInvalidate + rec.DataFromRemote + rec.DataFromMemory
	a.h.Write([]byte(digest))
}

func (a *workAcc) result() work {
	if a.h != nil {
		a.w.Digest = hex.EncodeToString(a.h.Sum(nil))
	}
	return a.w
}

// outcome is what a workload hands back for scoring.
type outcome struct {
	setups      []time.Duration
	elapsed     time.Duration
	latencies   []time.Duration
	attempted   int
	failedCalls int
	resampled   int
	matrixS     []float64
	work        work
	perLayer    map[string]float64 // traced runs only
	spans       *spanLog
}

// record scores an outcome.
func (o *outcome) record(name string, p params, chk *checker) *runRecord {
	r := &runRecord{
		Workload:  name,
		Seed:      p.seed,
		Seconds:   p.window.Seconds(),
		Trace:     p.trace,
		Attempted: o.attempted,
		Resampled: o.resampled,
		Samples:   len(o.latencies),
		MatrixS:   o.matrixS,
		Work:      o.work,
	}
	chk.mu.Lock()
	r.Checked = chk.checked
	r.Mismatches = append([]string(nil), chk.mismatches...)
	chk.mu.Unlock()
	r.Failed = o.failedCalls + len(r.Mismatches)
	r.Correct = r.Failed == 0 && r.Attempted > 0 && r.Samples > 0

	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	lat := make([]float64, len(o.latencies))
	for i, d := range o.latencies {
		lat[i] = float64(d) / 1e6
	}
	sort.Float64s(lat)
	e2e := map[string]float64{
		"setup_s":     median(setups),
		"cells_per_s": float64(len(lat)) / o.elapsed.Seconds(),
		"cell_ms_p50": percentile(lat, 0.50),
		"cell_ms_p95": percentile(lat, 0.95),
		"peak_rss_mb": peakRSSMB(),
	}
	r.EndToEnd = metrics(endToEndDefs, e2e)
	if p.trace {
		o.perLayer["traced.cells_per_s"] = e2e["cells_per_s"]
		o.perLayer["traced.cell_ms_p50"] = e2e["cell_ms_p50"]
		o.perLayer["traced.cell_ms_p95"] = e2e["cell_ms_p95"]
		r.PerLayer = metrics(perLayerDefs, o.perLayer)
		r.Spans = o.spans.summary()
	}
	return r
}

func metrics(defs []metricDef, vals map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.name] = Metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuProfile is the traced run's CPU profile of the timed window.
type cpuProfile struct{ f *os.File }

func startCPUProfile(dir, workload string) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and adds the cpu.* metrics for cells cells.
func (c *cpuProfile) stop(cells int, into map[string]float64) error {
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(c.f.Name())
	if err != nil {
		return err
	}
	byCat, err := cpuAttribution(data)
	if err != nil {
		return err
	}
	var total int64
	for _, ns := range byCat {
		total += ns
	}
	for _, cat := range cpuCategories {
		ns := float64(byCat[cat])
		if total > 0 {
			into["cpu."+cat+"_share"] = ns / float64(total)
		}
		if cells > 0 {
			into["cpu."+cat+"_ms_per_cell"] = ns / 1e6 / float64(cells)
		}
	}
	return nil
}

// perCell divides, reading 0 when there are no cells.
func perCell(v float64, cells int) float64 {
	if cells == 0 {
		return 0
	}
	return v / float64(cells)
}

// simPerLayer fills the sim.* metrics from the fixed work set.
func simPerLayer(w work, into map[string]float64) {
	into["sim.cycles_per_cell"] = perCell(float64(w.Cycles), w.Cells)
	into["sim.tx_attempts_per_cell"] = perCell(float64(w.TxAttempts), w.Cells)
	into["sim.spec_accesses_per_cell"] = perCell(float64(w.SpecAccesses), w.Cells)
	into["sim.bus_msgs_per_cell"] = perCell(float64(w.BusMsgs), w.Cells)
}
