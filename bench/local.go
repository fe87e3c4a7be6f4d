package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	asfsim "repro"
	"repro/internal/stats"
)

// runLocal is paper_matrix_local: the paperfigs default matrix (10
// kernels × 6 detections × seeds {s, s+1, s+2} at ScaleSmall, 8 cores),
// simulated in-process and repeated back to back for the window. Each
// pass hands the 180 jobs, in harness.Collect's order, to two goroutines
// that call asfsim.Run exactly as Collect's runJob does with Parallelism
// 2. Collect itself offers no per-cell hook; calling the same function
// directly gives per-cell latencies and lets the traced run wrap each
// cell's run phases, so the two runs differ only in the tracing.
func runLocal(p params) (*runRecord, error) {
	ledger, err := loadLedger()
	if err != nil {
		return nil, err
	}
	chk := newChecker(ledger)
	jobs := matrixCells(p.localScale, localSeeds(p.seed))
	o := &outcome{perLayer: make(map[string]float64)}

	// Set-up: one untimed warm-up cell per kernel, which primes the
	// machine pool the way a long paperfigs run has it primed.
	var warm []cell
	for _, wl := range asfsim.Workloads() {
		warm = append(warm, cell{wl, asfsim.DetectBaseline, p.localScale, p.seed})
	}
	for k := 0; k < p.setups; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		var mu sync.Mutex
		var firstErr error
		parallel(len(warm), 2, func(i int) {
			r, err := runCell(warm[i], nil)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if err == nil {
				chk.check(warm[i], digestOfRun(r))
			}
		})
		if firstErr != nil {
			return nil, fmt.Errorf("warm-up: %w", firstErr)
		}
		o.setups = append(o.setups, time.Since(start))
	}

	var lt *localTrace
	var prof *cpuProfile
	start := time.Now()
	if p.trace {
		o.spans = newSpanLog(start)
		lt = &localTrace{spans: o.spans}
		if prof, err = startCPUProfile(p.traceDir, "paper_matrix_local"); err != nil {
			return nil, err
		}
	}
	var acc workAcc
	var windowCycles uint64
	lat := make([]time.Duration, len(jobs))
	recs := make([]*stats.Record, len(jobs))
	errs := make([]error, len(jobs))
	// Whole passes only, ending at the pass boundary nearest the end of
	// the window: another pass starts while at least half of one still
	// fits.
	var passDur time.Duration
	for pass := 0; pass == 0 || time.Since(start)+passDur/2 < p.window; pass++ {
		passStart := time.Now()
		parallel(len(jobs), 2, func(i int) {
			trace := int64(pass*len(jobs) + i)
			t0 := time.Now()
			id := lt.newID()
			r, err := runCell(jobs[i], lt.phases(trace, id))
			t1 := time.Now()
			lt.cell(trace, id, t0, t1)
			lat[i], errs[i] = t1.Sub(t0), err
			if err == nil {
				recs[i] = stats.NewRecord(r)
			}
		})
		passDur = time.Since(passStart)
		o.matrixS = append(o.matrixS, passDur.Seconds())
		for i, c := range jobs {
			o.attempted++
			if errs[i] != nil {
				o.failedCalls++
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", c.label(), errs[i])
				continue
			}
			o.latencies = append(o.latencies, lat[i])
			windowCycles += uint64(recs[i].Cycles)
			d := digestOf(recs[i])
			chk.check(c, d)
			if pass == 0 {
				acc.add(recs[i], d)
			}
		}
	}
	o.elapsed = time.Since(start)
	o.work = acc.result()

	if p.trace {
		cells := len(o.latencies)
		if err := prof.stop(cells, o.perLayer); err != nil {
			return nil, err
		}
		lt.metrics(cells, windowCycles, o.perLayer)
		simPerLayer(o.work, o.perLayer)
		if err := o.spans.writeJSONL(filepath.Join(p.traceDir, "paper_matrix_local.spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return o.record("paper_matrix_local", p, chk), nil
}

// runCell runs one local cell the way harness.Collect's runJob does.
func runCell(c cell, phases func(string, time.Duration)) (*stats.Run, error) {
	cfg := asfsim.DefaultConfig()
	cfg.Detection = c.Detection
	cfg.Cores = 8
	cfg.Seed = c.Seed
	cfg.Phases = phases
	return asfsim.Run(c.Workload, c.Scale, cfg)
}

// localTrace collects the run-phase times of a traced local matrix. A
// nil *localTrace is the untraced run: no phase hook, so asfsim.Run takes
// its allocation-free path.
type localTrace struct {
	spans *spanLog

	mu                   sync.Mutex
	build, acquire, exec time.Duration
	machineBuilds        int
}

func (lt *localTrace) newID() int64 {
	if lt == nil {
		return 0
	}
	return lt.spans.newID()
}

// phases returns the asfsim.Config.Phases hook for one cell: each phase
// becomes a child span of the cell and adds to the per-phase totals.
func (lt *localTrace) phases(trace, parent int64) func(string, time.Duration) {
	if lt == nil {
		return nil
	}
	return func(phase string, d time.Duration) {
		end := time.Now()
		lt.spans.add(trace, lt.spans.newID(), parent, "run."+phase, end.Add(-d), end)
		lt.mu.Lock()
		defer lt.mu.Unlock()
		switch phase {
		case "workload.build":
			lt.build += d
		case "machine.build":
			lt.machineBuilds++
			lt.acquire += d
		case "machine.reset":
			lt.acquire += d
		case "execute":
			lt.exec += d
		}
	}
}

func (lt *localTrace) cell(trace, id int64, start, end time.Time) {
	if lt == nil {
		return
	}
	lt.spans.add(trace, id, 0, "local.cell", start, end)
}

// metrics fills the run.* metrics for the window's cells, which
// simulated cycles cycles between them.
func (lt *localTrace) metrics(cells int, cycles uint64, into map[string]float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	into["run.workload_build_ms"] = perCell(float64(lt.build)/1e6, cells)
	into["run.machine_reset_ms"] = perCell(float64(lt.acquire)/1e6, cells)
	into["run.machine_builds"] = perCell(float64(lt.machineBuilds), cells)
	into["run.execute_ms"] = perCell(float64(lt.exec)/1e6, cells)
	if cycles > 0 {
		into["run.execute_ns_per_sim_cycle"] = float64(lt.exec) / float64(cycles)
	}
}
