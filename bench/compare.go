package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// values collects one metric of one workload across runs.
func values(runs []*runRecord, workload, metric string, perLayer bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		m, ok := r.EndToEnd[metric]
		if perLayer {
			m, ok = r.PerLayer[metric]
		}
		if ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (its
// default "exclusive" method); with one value all three are that value.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := make([]float64, 3)
	const n = 4
	m := len(d) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// compareSets prints, for every end-to-end metric and workload, both
// files' medians and quartiles and a verdict against the metric's bound
// in BENCHMARK.json: "unresolved" when either file's quartile spread
// exceeds the bound, else "worse" or "better" when b's median moved by
// more than the bound, else "agree". Runs of one workload and seed must
// also have done identical simulated work. It returns exit code 0 only
// when every pair agrees (or is better) and all work matches.
func compareSets(w io.Writer, benchmarkPath, aPath, bPath string) (int, error) {
	bf, err := readBenchmark(benchmarkPath)
	if err != nil {
		return 1, err
	}
	a, err := readSet(aPath)
	if err != nil {
		return 1, err
	}
	b, err := readSet(bPath)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "a: %s (commit %.12s, %s, nproc %d)\n", aPath, a.Meta.Commit, a.Meta.GoVersion, a.Meta.NumCPU)
	fmt.Fprintf(w, "b: %s (commit %.12s, %s, nproc %d)\n", bPath, b.Meta.Commit, b.Meta.GoVersion, b.Meta.NumCPU)
	if traced(a.Runs) != traced(b.Runs) {
		fmt.Fprintln(w, "one file is traced and the other is not: the change column is the tracing overhead")
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-19s %28s %28s %9s %6s  %s\n", "metric", "workload",
		"a median [q1, q3]", "b median [q1, q3]", "change", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		for _, wl := range workloadNames {
			va, vb := values(a.Runs, wl, m.Name, false), values(b.Runs, wl, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case (a3-a1)/am > m.Bound || (b3-b1)/bm > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			if verdict == "worse" || verdict == "unresolved" {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-19s %10.4f [%7.4g, %7.4g] %10.4f [%7.4g, %7.4g] %+8.2f%% %5.0f%%  %s\n",
				m.Name, wl, am, a1, a3, bm, b1, b3, 100*(bm-am)/am, 100*m.Bound, verdict)
		}
	}
	if traced(a.Runs) && traced(b.Runs) {
		fmt.Fprintln(w, "per-layer medians (no bounds):")
		for _, m := range bf.PerLayer {
			for _, wl := range workloadNames {
				va, vb := values(a.Runs, wl, m.Name, true), values(b.Runs, wl, m.Name, true)
				if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
					continue
				}
				fmt.Fprintf(w, "  %-34s %-19s %14.4f %14.4f %s\n", m.Name, wl, median(va), median(vb), m.Unit)
			}
		}
	}
	if bad := workMismatches(a.Runs, b.Runs); len(bad) > 0 {
		code = 1
		for _, s := range bad {
			fmt.Fprintln(w, "WORK MISMATCH", s)
		}
	} else {
		fmt.Fprintln(w, "simulated work and result digests: identical for every workload and seed in both files")
	}
	return code, nil
}

func traced(runs []*runRecord) bool {
	for _, r := range runs {
		if r.Trace {
			return true
		}
	}
	return false
}

// workMismatches lists every (workload, seed) whose runs, across both
// files, did not all do the same simulated work with the same results.
func workMismatches(a, b []*runRecord) []string {
	type key struct {
		wl   string
		seed uint64
	}
	first := make(map[key]work)
	var bad []string
	for _, r := range append(append([]*runRecord(nil), a...), b...) {
		k := key{r.Workload, r.Seed}
		if w, ok := first[k]; !ok {
			first[k] = r.Work
		} else if w != r.Work {
			bad = append(bad, fmt.Sprintf("%s seed %d: %+v vs %+v", k.wl, k.seed, w, r.Work))
		}
	}
	return bad
}
