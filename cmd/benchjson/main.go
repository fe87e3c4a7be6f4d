// Command benchjson runs one full simulation of every workload at the
// benchmark scale under each of the paper's headline detection systems
// (baseline, subblock-4 and perfect) through testing.Benchmark and writes
// the results as a machine-readable JSON file — the repository's
// performance trajectory. Each (workload, detection) row records
// wall-time (ns/op), allocation churn (allocs/op, B/op) and the run's
// deterministic simulated cycle count, so simulator-performance changes
// and accidental result changes are both visible in one diff.
//
// Usage:
//
//	benchjson                 # writes BENCH_<yyyy-mm-dd>.json
//	benchjson -o BENCH.json   # explicit output path
//	benchjson -o -            # JSON to stdout
//
// Diff mode compares two trajectory files and exits non-zero on a
// regression, which is how CI gates performance against the committed
// baseline:
//
//	benchjson -diff BENCH_2026-08-06.json bench-now.json
//	benchjson -diff -threshold 1.5 old.json new.json
//
// Rows are matched by (workload, detection); a row without a detection
// (files written before rows carried one) is a baseline row. A regression
// is a row whose ns/op grew beyond -threshold× the baseline (noise
// margin; default 1.4), whose allocs/op or B/op grew beyond
// -alloc-threshold× the baseline (allocation counts are nearly
// deterministic, so the margin is tighter), a row that disappeared, or
// any simCycles mismatch — simulated cycles are deterministic, so that is
// a silent result change, never noise, and is gated at exactly zero
// tolerance. A new row with no baseline row is reported, not gated.
//
// Each workload performs one untimed warm-up run before measuring, so the
// recorded numbers are the machine-pool steady state (reused machines)
// rather than an average skewed by first-run construction.
//
// The committed BENCH_*.json baselines are produced by exactly this
// command; see EXPERIMENTS.md "Performance".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	asfsim "repro"
)

// benchSeed matches the root bench_test.go suite so the simcycles counts
// here and there are the same deterministic numbers.
const benchSeed = 1

// benchDetections are the detection systems every workload is measured
// under: the original ASF, the paper's recommended 4 sub-blocks and the
// ideal system.
var benchDetections = []asfsim.Detection{
	asfsim.DetectBaseline, asfsim.DetectSubBlock4, asfsim.DetectPerfect,
}

// WorkloadResult is one (workload, detection) benchmark entry.
type WorkloadResult struct {
	Name string `json:"name"`
	// Detection is the detection system the row ran under; empty means
	// baseline.
	Detection   string  `json:"detection,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// SimCycles is the run's simulated execution time — a pure function of
	// (workload, scale, seed, detection), so any change here is a result
	// change, not a performance change.
	SimCycles int64 `json:"simCycles"`
}

// key identifies a row across files: workload name and detection system.
func (w WorkloadResult) key() string {
	d := w.Detection
	if d == "" {
		d = asfsim.DetectBaseline.String()
	}
	return w.Name + "/" + d
}

// File is the BENCH_<date>.json schema.
type File struct {
	Date       string           `json:"date"`
	GoVersion  string           `json:"goVersion"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Scale      string           `json:"scale"`
	Seed       uint64           `json:"seed"`
	Workloads  []WorkloadResult `json:"workloads"`
}

func main() {
	out := flag.String("o", "", `output path ("-" = stdout; default BENCH_<yyyy-mm-dd>.json)`)
	diff := flag.Bool("diff", false, "compare two trajectory files (old new); exit 1 on regression")
	threshold := flag.Float64("threshold", 1.4, "ns/op growth factor tolerated in -diff mode before failing")
	allocThreshold := flag.Float64("alloc-threshold", 1.4, "allocs/op and B/op growth factor tolerated in -diff mode before failing")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		if err := diffFiles(flag.Arg(0), flag.Arg(1), *threshold, *allocThreshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	f := File{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      asfsim.ScaleTiny.String(),
		Seed:       benchSeed,
	}

	for _, d := range benchDetections {
		for _, wl := range asfsim.Workloads() {
			row, err := measure(wl, d)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", row.key(), err)
				os.Exit(1)
			}
			f.Workloads = append(f.Workloads, row)
			fmt.Fprintf(os.Stderr, "benchjson: %-25s %12.0f ns/op %10d allocs/op %10d simcycles\n",
				row.key(), row.NsPerOp, row.AllocsPerOp, row.SimCycles)
		}
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", f.Date)
	}
	w := os.Stdout
	if path != "-" {
		var err error
		w, err = os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", path)
	}
}

// measure benchmarks one workload under one detection system.
func measure(wl string, d asfsim.Detection) (WorkloadResult, error) {
	row := WorkloadResult{Name: wl, Detection: d.String()}
	var failure error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cfg := asfsim.DefaultConfig()
		cfg.Detection = d
		cfg.Seed = benchSeed
		// Warm the machine pool before the timer so allocs/op records
		// the reused-machine steady state independent of b.N.
		if _, err := asfsim.Run(wl, asfsim.ScaleTiny, cfg); err != nil {
			failure = err
			b.FailNow()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := asfsim.Run(wl, asfsim.ScaleTiny, cfg)
			if err != nil {
				failure = err
				b.FailNow()
			}
			row.SimCycles = r.Cycles
		}
	})
	if failure != nil {
		return row, failure
	}
	row.Iterations = res.N
	row.NsPerOp = float64(res.T.Nanoseconds()) / float64(res.N)
	row.AllocsPerOp = res.AllocsPerOp()
	row.BytesPerOp = res.AllocedBytesPerOp()
	return row, nil
}

func loadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// diffFiles compares a baseline trajectory against a fresh one. ns/op
// is wall time and therefore noisy, so it is gated with a multiplier;
// allocs/op and B/op are nearly deterministic and get their own (usually
// tighter) multiplier; simCycles is deterministic, so it is gated at
// exact equality — a mismatch there means the simulator's results
// changed, not its speed.
func diffFiles(oldPath, newPath string, threshold, allocThreshold float64) error {
	oldF, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadFile(newPath)
	if err != nil {
		return err
	}
	if oldF.Scale != newF.Scale || oldF.Seed != newF.Seed {
		return fmt.Errorf("configs differ (%s seed %d vs %s seed %d): not comparable",
			oldF.Scale, oldF.Seed, newF.Scale, newF.Seed)
	}

	newBy := make(map[string]WorkloadResult, len(newF.Workloads))
	for _, w := range newF.Workloads {
		newBy[w.key()] = w
	}

	var failures []string
	for _, old := range oldF.Workloads {
		name := old.key()
		cur, ok := newBy[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from %s", name, newPath))
			continue
		}
		delete(newBy, name)
		if cur.SimCycles != old.SimCycles {
			failures = append(failures, fmt.Sprintf(
				"%s: simCycles changed %d -> %d (deterministic result change, zero tolerance)",
				name, old.SimCycles, cur.SimCycles))
		}
		ratio := cur.NsPerOp / old.NsPerOp
		status := "ok"
		if ratio > threshold {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op regressed %.0f -> %.0f (%.2fx > %.2fx threshold)",
				name, old.NsPerOp, cur.NsPerOp, ratio, threshold))
		}
		if old.AllocsPerOp > 0 {
			if r := float64(cur.AllocsPerOp) / float64(old.AllocsPerOp); r > allocThreshold {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op regressed %d -> %d (%.2fx > %.2fx threshold)",
					name, old.AllocsPerOp, cur.AllocsPerOp, r, allocThreshold))
			}
		}
		if old.BytesPerOp > 0 {
			if r := float64(cur.BytesPerOp) / float64(old.BytesPerOp); r > allocThreshold {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf(
					"%s: B/op regressed %d -> %d (%.2fx > %.2fx threshold)",
					name, old.BytesPerOp, cur.BytesPerOp, r, allocThreshold))
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-25s %12.0f -> %12.0f ns/op (%.2fx) %8d -> %8d allocs/op %s\n",
			name, old.NsPerOp, cur.NsPerOp, ratio, old.AllocsPerOp, cur.AllocsPerOp, status)
	}
	for _, w := range newF.Workloads {
		if _, ok := newBy[w.key()]; ok {
			fmt.Fprintf(os.Stderr, "benchjson: %-25s new workload, no baseline\n", w.key())
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL "+f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), oldPath)
	}
	fmt.Fprintf(os.Stderr, "benchjson: no regressions against %s\n", oldPath)
	return nil
}
