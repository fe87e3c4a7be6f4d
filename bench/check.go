package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// cell is one experiment cell as the benchmark issues it. Cores and every
// robustness knob stay at their defaults, exactly as paperfigs and
// CollectMatrix leave them.
type cell struct {
	Workload  string
	Detection asfsim.Detection
	Scale     workloads.Scale
	Seed      uint64
}

// label names the cell in the digest ledger.
func (c cell) label() string {
	return fmt.Sprintf("%s/%s/%s/%d", c.Workload, c.Detection, c.Scale, c.Seed)
}

func (c cell) spec() harness.CellSpec {
	return harness.CellSpec{Workload: c.Workload, Detection: c.Detection, Scale: c.Scale, Seed: c.Seed}
}

func (c cell) request() service.JobRequest {
	return service.JobRequest{
		Workload:  c.Workload,
		Detection: c.Detection.String(),
		Scale:     c.Scale.String(),
		Seed:      c.Seed,
	}
}

// matrixCells lists the cells of a (kernel × detection × seed) matrix in
// harness.Collect's job order: workload-major, then detection, then seed.
func matrixCells(scale workloads.Scale, seeds []uint64) []cell {
	var out []cell
	for _, wl := range asfsim.Workloads() {
		for _, d := range asfsim.Detections {
			for _, s := range seeds {
				out = append(out, cell{wl, d, scale, s})
			}
		}
	}
	return out
}

// seedRange returns n consecutive simulator seeds starting at first.
func seedRange(first uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

// localSeeds are the simulator seeds of the paper_matrix_local matrix for
// benchmark seed s, as in the paperfigs default {1, 2, 3}.
func localSeeds(s uint64) []uint64 { return seedRange(s, 3) }

// digestOf is the ledger's digest: service.ResultDigest over the
// canonical JSON of the result record, the bytes asfd caches and serves.
func digestOf(rec *stats.Record) string {
	b, err := json.Marshal(rec)
	if err != nil {
		// A Record holds only plain scalar fields; Marshal cannot fail.
		panic(err)
	}
	return service.ResultDigest(b)
}

func digestOfRun(r *stats.Run) string { return digestOf(stats.NewRecord(r)) }

// defaultFillSeeds is the serve_warm fill depth: 10 kernels × 6
// detections × 17 seeds = 1 020 cells, which fits asfd's default
// 1 024-entry cache, so the warm workload never evicts.
const defaultFillSeeds = 17

// ledgerJSON is the committed digest ledger: the content digest of the
// canonical result bytes of every cell the default seed (1) produces —
// the 180 ScaleSmall cells of paper_matrix_local and the 1 020 ScaleTiny
// fill cells of serve_warm.
//
//go:embed testdata/digests.json
var ledgerJSON []byte

type ledgerFile struct {
	Note  string            `json:"note"`
	Cells map[string]string `json:"cells"`
}

func loadLedger() (map[string]string, error) {
	var lf ledgerFile
	if err := json.Unmarshal(ledgerJSON, &lf); err != nil {
		return nil, fmt.Errorf("decoding digest ledger: %w", err)
	}
	return lf.Cells, nil
}

// ledgerSet lists every cell the ledger covers.
func ledgerSet() []cell {
	return append(matrixCells(workloads.ScaleSmall, localSeeds(1)),
		matrixCells(workloads.ScaleTiny, seedRange(1, defaultFillSeeds))...)
}

// regenLedger recomputes the ledger locally, two cells at a time, and
// writes it to path.
func regenLedger(path string) error {
	cells := ledgerSet()
	digests := make([]string, len(cells))
	errs := make([]error, len(cells))
	parallel(len(cells), 2, func(i int) {
		r, err := harness.RunCell(cells[i].spec(), nil)
		if err != nil {
			errs[i] = err
			return
		}
		digests[i] = digestOfRun(r)
	})
	lf := ledgerFile{
		Note:  "service.ResultDigest(json.Marshal(stats.NewRecord(run))) per cell; regenerate with -regen-ledger",
		Cells: make(map[string]string, len(cells)),
	}
	for i, c := range cells {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", c.label(), errs[i])
		}
		lf.Cells[c.label()] = digests[i]
	}
	data, err := json.MarshalIndent(lf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parallel calls fn(0..n-1) from the given number of goroutines and
// returns when every call has.
func parallel(n, workers int, fn func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// checker verifies every result a run produces or receives. A cell in
// the ledger must match it; any cell seen twice must match its first
// digest; and served cells outside the ledger are kept so that a seeded
// sample of them can be re-run locally after the window.
type checker struct {
	ledger map[string]string

	mu         sync.Mutex
	seen       map[string]string
	unledgered []cell
	checked    int
	mismatches []string
}

func newChecker(ledger map[string]string) *checker {
	return &checker{ledger: ledger, seen: make(map[string]string)}
}

// check records one result digest for c and counts a mismatch if it
// disagrees.
func (k *checker) check(c cell, digest string) {
	label := c.label()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.checked++
	want, inLedger := k.ledger[label]
	if first, ok := k.seen[label]; ok {
		want, inLedger = first, true
	} else {
		k.seen[label] = digest
		if !inLedger {
			k.unledgered = append(k.unledgered, c)
		}
	}
	if inLedger && want != digest {
		k.mismatches = append(k.mismatches, fmt.Sprintf("%s: got %.12s, want %.12s", label, digest, want))
	}
}

// verifySample re-runs n of the unledgered cells locally (a seeded
// choice) and checks their digests against the served ones. It returns
// how many cells it re-ran.
func (k *checker) verifySample(seed uint64, n int) int {
	k.mu.Lock()
	pool := append([]cell(nil), k.unledgered...)
	k.mu.Unlock()
	sort.Slice(pool, func(i, j int) bool { return pool[i].label() < pool[j].label() })
	rng := splitmix(seed ^ 0x5eed)
	for i := len(pool) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		pool[i], pool[j] = pool[j], pool[i]
	}
	if n > len(pool) {
		n = len(pool)
	}
	for _, c := range pool[:n] {
		r, err := harness.RunCell(c.spec(), nil)
		if err != nil {
			k.mu.Lock()
			k.mismatches = append(k.mismatches, fmt.Sprintf("%s: local re-run failed: %v", c.label(), err))
			k.mu.Unlock()
			continue
		}
		d := digestOfRun(r)
		k.mu.Lock()
		if served := k.seen[c.label()]; served != d {
			k.mismatches = append(k.mismatches, fmt.Sprintf("%s: served %.12s, local re-run %.12s", c.label(), served, d))
		}
		k.mu.Unlock()
	}
	return n
}

// splitmix is SplitMix64, the benchmark's own seeded generator for
// choosing cells: it keeps the request sequence a pure function of the
// benchmark seed and the request index.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw returns a uniform value in [0, 1) that depends only on seed, i and
// stream.
func draw(seed uint64, i int, stream uint64) float64 {
	s := splitmix(seed*0x100000001b3 ^ uint64(i)*0x9e3779b97f4a7c15 ^ stream)
	return float64(s.next()>>11) / (1 << 53)
}
