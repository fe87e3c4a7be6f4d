// Command bench is the repository's end-to-end benchmark. It runs one
// workload — the paper's figure matrix simulated in-process, or one of
// three traffic mixes against an in-process asfd daemon over loopback —
// for a timed window, checks every result it produces or receives
// against a committed digest ledger, and prints every metric named in
// BENCHMARK.json by name and unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans and a CPU profile and reports the per-layer
// metrics instead. Run it from the repository root (README.md has more):
//
//	bash bench/run.sh -workload serve_cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -repeat 5 -o a.json
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -regen-ledger
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ledgerPath is where -regen-ledger writes, relative to the repository
// root.
var ledgerPath = filepath.Join("bench", "testdata", "digests.json")

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "input seed; 0 means 1, as in the simulator")
		seconds  = flag.Int("seconds", 20, "length of the timed window, in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and a CPU profile and reports the per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>.spans.jsonl and <workload>.pprof")
		out      = flag.String("o", "", "also write every run's full record to this JSON file")
		repeat   = flag.Int("repeat", 1, "with -workload all: runs per workload, with seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two -o files: -compare a.json b.json")
		regen    = flag.Bool("regen-ledger", false, "recompute the digest ledger into "+ledgerPath)
	)
	flag.Parse()
	if *seed == 0 {
		*seed = 1
	}
	var code int
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		code, err = compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *regen:
		err = regenLedger(ledgerPath)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case *workload == "all":
		code, err = runAll(*seed, *seconds, *trace, *traceDir, *repeat, *out)
	default:
		code, err = runOne(*workload, defaultParams(*seed, *seconds, *trace == 1, *traceDir), *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func (r *runRecord) line() resultLine {
	m := r.EndToEnd
	if r.Trace {
		m = r.PerLayer
	}
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

// runOne runs one workload in this process and prints its report.
func runOne(name string, p params, out string) (int, error) {
	r, err := runWorkload(name, p)
	if err != nil {
		return 1, err
	}
	printReport(os.Stdout, r)
	if out != "" {
		if err := writeSet(out, []*runRecord{r}); err != nil {
			return 1, err
		}
	}
	if !r.Correct {
		return 1, nil
	}
	return 0, nil
}

// printReport prints every metric by name and unit, then the result line.
func printReport(w io.Writer, r *runRecord) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s, %gs window)\n", r.Workload, r.Seed, mode, r.Seconds)
	fmt.Fprintf(w, "  attempted %d, failed %d (error_rate %.4f), %d results checked, %d served cells re-run locally\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Checked, r.Resampled)
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH %s\n", m)
	}
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, r.EndToEnd[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  (%d latency samples", r.Samples)
	if len(r.MatrixS) > 0 {
		fmt.Fprintf(w, "; matrix_s median %.3f s over %d passes", median(r.MatrixS), len(r.MatrixS))
	}
	fmt.Fprintf(w, "; work %d cells, %d cycles)\n", r.Work.Cells, r.Work.Cycles)
	if r.Trace {
		for _, d := range perLayerDefs {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, r.PerLayer[d.name].Value, d.unit)
		}
		names := make([]string, 0, len(r.Spans))
		for n := range r.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span", "count", "mean ms", "self ms")
		for _, n := range names {
			s := r.Spans[n]
			fmt.Fprintf(w, "  %-34s %8d %12.4f %12.4f\n", n, s.Count, s.MeanMs, s.SelfMs)
		}
	}
	line, _ := json.Marshal(r.line())
	fmt.Fprintln(w, string(line))
}

// runAll runs every workload repeat times, each run in its own process,
// interleaving the workloads, and prints a median summary.
func runAll(seed uint64, seconds, trace int, traceDir string, repeat int, out string) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp("", "bench-all-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	code := 0
	var runs []*runRecord
	for rep := 0; rep < repeat; rep++ {
		s := seed + uint64(rep)
		for _, name := range workloadNames {
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, rep))
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-trace-dir", traceDir, "-o", path)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, s, err)
				code = 1
			}
			set, err := readSet(path)
			if err != nil {
				code = 1
				continue
			}
			runs = append(runs, set.Runs...)
		}
	}
	printSummary(os.Stdout, runs)
	if out != "" {
		if err := writeSet(out, runs); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// printSummary prints each end-to-end metric's median per workload.
func printSummary(w io.Writer, runs []*runRecord) {
	fmt.Fprintf(w, "%-20s", "metric")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %20s", name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "%-20s", d.name+" ("+d.unit+")")
		for _, name := range workloadNames {
			vals := values(runs, name, d.name, false)
			if len(vals) == 0 {
				fmt.Fprintf(w, " %20s", "-")
				continue
			}
			fmt.Fprintf(w, " %20.4f", median(vals))
		}
		fmt.Fprintln(w)
	}
}

// meta identifies the build and host a result file came from.
type meta struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Date       string `json:"date"`
}

func currentMeta() meta {
	m := meta{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// setFile is the -o format: a set of runs plus where they ran.
type setFile struct {
	Meta meta         `json:"meta"`
	Runs []*runRecord `json:"runs"`
}

func writeSet(path string, runs []*runRecord) error {
	data, err := json.MarshalIndent(setFile{Meta: currentMeta(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
