// Package harness runs the paper's experiment matrix — every workload ×
// every detection system × several seeds — and renders each table and
// figure of the evaluation as text. cmd/paperfigs, cmd/asftrace, the
// root benchmark suite and client.CollectMatrix are thin wrappers around
// it.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	asfsim "repro"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Options selects the experiment matrix.
type Options struct {
	Scale     workloads.Scale
	Seeds     []uint64 // runs per cell; results are averaged
	Cores     int
	Workloads []string // nil = all, Table III order

	// Parallelism is the number of matrix cells run concurrently: 0
	// means GOMAXPROCS (4 in client.CollectMatrix), 1 strictly serial.
	// Every (workload, detection, seed) run is an independent, fully
	// seeded simulation, so the collected matrix is bit-identical at any
	// parallelism level — TestParallelMatchesSerial holds that.
	Parallelism int
}

// DefaultOptions is the configuration used for EXPERIMENTS.md: small
// scale, three seeds (labyrinth's conflict counts are tiny and noisy, as
// the paper notes, so averaging matters), 8 cores.
func DefaultOptions() Options {
	return Options{Scale: workloads.ScaleSmall, Seeds: []uint64{1, 2, 3}, Cores: 8}
}

func (o *Options) normalize() {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1}
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workloads.Names()
	}
}

// Cell is one (workload, detection) cell: one run per seed.
type Cell struct {
	Runs []*stats.Run
}

func (c *Cell) mean(f func(*stats.Run) float64) float64 {
	if len(c.Runs) == 0 {
		return 0
	}
	var s float64
	for _, r := range c.Runs {
		s += f(r)
	}
	return s / float64(len(c.Runs))
}

// std returns the population standard deviation of f over the cell's runs
// (0 with fewer than two runs) — the seed-to-seed variance the paper
// flags for labyrinth.
func (c *Cell) std(f func(*stats.Run) float64) float64 {
	n := len(c.Runs)
	if n < 2 {
		return 0
	}
	m := c.mean(f)
	var ss float64
	for _, r := range c.Runs {
		d := f(r) - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// CyclesStd returns the seed-to-seed standard deviation of execution time.
func (c *Cell) CyclesStd() float64 {
	return c.std(func(r *stats.Run) float64 { return float64(r.Cycles) })
}

// TxFraction returns the mean share of thread-time inside transactions.
func (c *Cell) TxFraction() float64 {
	return c.mean(func(r *stats.Run) float64 { return r.TxFraction() })
}

// Cycles returns the mean execution time.
func (c *Cell) Cycles() float64 {
	return c.mean(func(r *stats.Run) float64 { return float64(r.Cycles) })
}

// Conflicts returns the mean total conflicts.
func (c *Cell) Conflicts() float64 {
	return c.mean(func(r *stats.Run) float64 { return float64(r.Conflicts) })
}

// FalseConflicts returns the mean false conflicts.
func (c *Cell) FalseConflicts() float64 {
	return c.mean(func(r *stats.Run) float64 { return float64(r.FalseConflicts) })
}

// FalseRate returns the mean Fig. 1 rate.
func (c *Cell) FalseRate() float64 {
	return c.mean(func(r *stats.Run) float64 { return r.FalseConflictRate() })
}

// TypeShare returns the mean Fig. 2 share for conflict type t.
func (c *Cell) TypeShare(t oracle.ConflictType) float64 {
	return c.mean(func(r *stats.Run) float64 { return r.TypeShare(t) })
}

// AvoidableRate returns the mean Fig. 8 analytical reduction for
// stats.AvoidableNs[i].
func (c *Cell) AvoidableRate(i int) float64 {
	return c.mean(func(r *stats.Run) float64 { return r.AvoidableRate(i) })
}

// Matrix is the full experiment result set.
type Matrix struct {
	Opts  Options
	Cells map[string]map[asfsim.Detection]*Cell
}

// Collect runs the matrix in-process: CollectWith with RunCell as the
// way one cell runs. Detections lists which systems to run; nil means
// all of them.
func Collect(opts Options, detections []asfsim.Detection) (*Matrix, error) {
	return CollectWith(opts, detections, func(s CellSpec) (*stats.Run, error) { return RunCell(s, nil) })
}

// CollectWith is the one matrix collector, shared by Collect (cells run
// in-process) and client.CollectMatrix (cells served by asfd). It runs
// every (workload, detection, seed) cell through run, across
// opts.Parallelism worker goroutines. Every run is an independent,
// deterministic simulation, and each lands in a preassigned slot of its
// cell's Runs slice, so the matrix is bit-identical to a serial
// collection regardless of scheduling. On failure the error reported is
// the one belonging to the earliest cell in matrix order, again
// independent of scheduling.
func CollectWith(opts Options, detections []asfsim.Detection, run func(CellSpec) (*stats.Run, error)) (*Matrix, error) {
	opts.normalize()
	if len(detections) == 0 {
		detections = asfsim.Detections
	}
	m := &Matrix{Opts: opts, Cells: make(map[string]map[asfsim.Detection]*Cell)}
	type job struct {
		spec CellSpec
		slot **stats.Run
	}
	var jobs []job
	for _, wl := range opts.Workloads {
		m.Cells[wl] = make(map[asfsim.Detection]*Cell, len(detections))
		for _, d := range detections {
			cell := &Cell{Runs: make([]*stats.Run, len(opts.Seeds))}
			m.Cells[wl][d] = cell
			for si, seed := range opts.Seeds {
				spec := CellSpec{Workload: wl, Detection: d, Scale: opts.Scale, Seed: seed, Cores: opts.Cores}
				jobs = append(jobs, job{spec, &cell.Runs[si]})
			}
		}
	}
	err := forEach(len(jobs), opts.Parallelism, func(i int) (err error) {
		*jobs[i].slot, err = run(jobs[i].spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// forEach calls do(i) for every i in [0, n) on up to workers goroutines
// (0 = GOMAXPROCS). At one worker or fewer the calls run serially, in
// order, and stop at the first error. Each call writes only its own
// index's slots, so no locking is needed beyond the channel, and the
// error returned is the one of the smallest failing index whatever the
// scheduling.
func forEach(n, workers int, do func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = do(i)
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Cell returns the cell for (workload, detection), nil if absent.
func (m *Matrix) Cell(wl string, d asfsim.Detection) *Cell {
	if row, ok := m.Cells[wl]; ok {
		return row[d]
	}
	return nil
}

// Reduction returns (base-metric - new-metric)/base-metric over cell means.
func reduction(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base
}

// ---------------------------------------------------------------------------
// Figure renderers
// ---------------------------------------------------------------------------

// Fig1 renders the false-conflict-rate table (baseline ASF).
func (m *Matrix) Fig1() string {
	var rows [][]string
	var sum float64
	n := 0
	for _, wl := range m.Opts.Workloads {
		c := m.Cell(wl, asfsim.DetectBaseline)
		if c == nil {
			continue
		}
		r := c.FalseRate()
		sum += r
		n++
		rows = append(rows, []string{wl, stats.Pct(r), stats.Bar(r, 40),
			fmt.Sprintf("%.0f", c.Conflicts()), fmt.Sprintf("%.0f", c.FalseConflicts())})
	}
	if n > 0 {
		rows = append(rows, []string{"AVERAGE", stats.Pct(sum / float64(n)), stats.Bar(sum/float64(n), 40), "", ""})
	}
	return "Figure 1: false conflict rate (baseline ASF)\n" +
		stats.Table([]string{"benchmark", "false rate", "", "conflicts", "false"}, rows)
}

// Fig2 renders the WAR/RAW/WAW breakdown of false conflicts.
func (m *Matrix) Fig2() string {
	var rows [][]string
	for _, wl := range m.Opts.Workloads {
		c := m.Cell(wl, asfsim.DetectBaseline)
		if c == nil {
			continue
		}
		rows = append(rows, []string{wl,
			stats.Pct(c.TypeShare(oracle.WAR)),
			stats.Pct(c.TypeShare(oracle.RAW)),
			stats.Pct(c.TypeShare(oracle.WAW)),
		})
	}
	return "Figure 2: breakdown of false conflict types (baseline ASF)\n" +
		stats.Table([]string{"benchmark", "WAR", "RAW", "WAW"}, rows)
}

// Fig8 renders the false-conflict reduction rate per sub-block count: the
// analytical §III-B replay (would N-granule detection have caught each
// baseline false conflict?) plus the measured protocol reduction for the
// detections present in the matrix.
func (m *Matrix) Fig8() string {
	headers := []string{"benchmark"}
	for _, n := range stats.AvoidableNs {
		headers = append(headers, fmt.Sprintf("sub-%d", n))
	}
	var rows [][]string
	avg := make([]float64, len(stats.AvoidableNs))
	cnt := 0
	for _, wl := range m.Opts.Workloads {
		c := m.Cell(wl, asfsim.DetectBaseline)
		if c == nil {
			continue
		}
		row := []string{wl}
		for i := range stats.AvoidableNs {
			r := c.AvoidableRate(i)
			avg[i] += r
			row = append(row, stats.Pct(r))
		}
		cnt++
		rows = append(rows, row)
	}
	if cnt > 0 {
		row := []string{"AVERAGE"}
		for i := range avg {
			row = append(row, stats.Pct(avg[i]/float64(cnt)))
		}
		rows = append(rows, row)
	}
	return "Figure 8: false conflict reduction rate by sub-block count\n" +
		"(analytical replay of baseline conflicts, §III-B)\n" +
		stats.Table(headers, rows)
}

// Fig9 renders the overall-conflict reduction of SubBlock(4) and Perfect
// versus the baseline.
func (m *Matrix) Fig9() string {
	var rows [][]string
	var s4, sp float64
	n := 0
	for _, wl := range m.Opts.Workloads {
		base := m.Cell(wl, asfsim.DetectBaseline)
		sb4 := m.Cell(wl, asfsim.DetectSubBlock4)
		perf := m.Cell(wl, asfsim.DetectPerfect)
		if base == nil || sb4 == nil || perf == nil {
			continue
		}
		r4 := reduction(base.Conflicts(), sb4.Conflicts())
		rp := reduction(base.Conflicts(), perf.Conflicts())
		s4 += r4
		sp += rp
		n++
		rel := "-"
		if rp > 0 {
			rel = stats.Pct(r4 / rp)
		}
		rows = append(rows, []string{wl, stats.Pct(r4), stats.Pct(rp), rel})
	}
	if n > 0 {
		rel := "-"
		if sp > 0 {
			rel = stats.Pct(s4 / sp)
		}
		rows = append(rows, []string{"AVERAGE", stats.Pct(s4 / float64(n)), stats.Pct(sp / float64(n)), rel})
	}
	return "Figure 9: percentage of overall conflict reduction vs baseline\n" +
		stats.Table([]string{"benchmark", "sub-block(4)", "perfect", "sb4/perfect"}, rows)
}

// Fig10 renders the execution-time improvement of SubBlock(4) and Perfect
// versus the baseline.
func (m *Matrix) Fig10() string {
	var rows [][]string
	var s4, sp float64
	n := 0
	for _, wl := range m.Opts.Workloads {
		base := m.Cell(wl, asfsim.DetectBaseline)
		sb4 := m.Cell(wl, asfsim.DetectSubBlock4)
		perf := m.Cell(wl, asfsim.DetectPerfect)
		if base == nil || sb4 == nil || perf == nil {
			continue
		}
		i4 := reduction(base.Cycles(), sb4.Cycles())
		ip := reduction(base.Cycles(), perf.Cycles())
		s4 += i4
		sp += ip
		n++
		rows = append(rows, []string{wl,
			fmt.Sprintf("%+.1f%%", i4*100), fmt.Sprintf("%+.1f%%", ip*100)})
	}
	if n > 0 {
		rows = append(rows, []string{"AVERAGE",
			fmt.Sprintf("%+.1f%%", s4/float64(n)*100), fmt.Sprintf("%+.1f%%", sp/float64(n)*100)})
	}
	return "Figure 10: improvement of overall execution time vs baseline\n" +
		stats.Table([]string{"benchmark", "sub-block(4)", "perfect"}, rows)
}

// TimeBreakdown renders the per-benchmark cycle attribution under the
// baseline — the quantitative backing for the paper's "long
// non-transactional execution time" explanations of Fig. 10.
func (m *Matrix) TimeBreakdown() string {
	var rows [][]string
	for _, wl := range m.Opts.Workloads {
		c := m.Cell(wl, asfsim.DetectBaseline)
		if c == nil {
			continue
		}
		txf := c.TxFraction()
		bof := c.mean(func(r *stats.Run) float64 { return r.BackoffFraction() })
		cv := 0.0
		if cyc := c.Cycles(); cyc > 0 {
			cv = c.CyclesStd() / cyc
		}
		rows = append(rows, []string{wl,
			stats.Pct(txf), stats.Pct(bof), stats.Pct(1 - txf - bof),
			stats.Pct(cv)})
	}
	return "Time breakdown (baseline ASF; seed-to-seed coefficient of variation)\n" +
		stats.Table([]string{"benchmark", "in-tx", "backoff", "non-tx", "cycles CV"}, rows)
}

// Summary renders the paper's headline averages: the Fig. 8 analytical
// false-conflict reduction at 4 sub-blocks (paper: 56.4 %) and the measured
// overall-conflict reduction at 4 sub-blocks (paper: 31.3 %).
func (m *Matrix) Summary() string {
	var falseRed, overallRed, timeImp float64
	n := 0
	for _, wl := range m.Opts.Workloads {
		base := m.Cell(wl, asfsim.DetectBaseline)
		sb4 := m.Cell(wl, asfsim.DetectSubBlock4)
		if base == nil || sb4 == nil {
			continue
		}
		falseRed += base.AvoidableRate(1) // AvoidableNs[1] == 4 sub-blocks
		overallRed += reduction(base.Conflicts(), sb4.Conflicts())
		timeImp += reduction(base.Cycles(), sb4.Cycles())
		n++
	}
	if n == 0 {
		return "summary: no data\n"
	}
	f := float64(n)
	var b strings.Builder
	fmt.Fprintf(&b, "Headline averages over %d benchmarks, 4 sub-blocks:\n", n)
	fmt.Fprintf(&b, "  false-conflict reduction (analytical, paper: 56.4%%): %s\n", stats.Pct(falseRed/f))
	fmt.Fprintf(&b, "  overall-conflict reduction (measured, paper: 31.3%%): %s\n", stats.Pct(overallRed/f))
	fmt.Fprintf(&b, "  execution-time improvement (paper: up to ~30%%):      %s\n", stats.Pct(timeImp/f))
	return b.String()
}

// Table2 renders the simulated machine configuration.
func Table2() string {
	h := asfsim.MachineDescription()
	rows := [][]string{
		{"Processors", "8 cores, memory-op timing model (see DESIGN.md)"},
		{"L1 DCache", fmt.Sprintf("%dKB, %dB lines, %d-way, %d cycles",
			h.L1.SizeBytes>>10, h.L1.LineSize, h.L1.Assoc, h.L1.LatencyCyc)},
		{"Private L2", fmt.Sprintf("%dKB, %d-way, %d cycles",
			h.L2.SizeBytes>>10, h.L2.Assoc, h.L2.LatencyCyc)},
		{"Private L3", fmt.Sprintf("%dMB, %d-way, %d cycles",
			h.L3.SizeBytes>>20, h.L3.Assoc, h.L3.LatencyCyc)},
		{"Main memory", fmt.Sprintf("%d cycles load-to-use", h.MemLatency)},
		{"Cache-to-cache", fmt.Sprintf("%d cycles", h.BusLatency)},
	}
	return "Table II: simulation configuration\n" + stats.Table([]string{"feature", "description"}, rows)
}

// Table3 renders the benchmark descriptions.
func Table3() string {
	var rows [][]string
	for _, wl := range workloads.Names() {
		rows = append(rows, []string{wl, workloads.Describe(wl)})
	}
	return "Table III: benchmark description\n" + stats.Table([]string{"benchmark", "description"}, rows)
}

// OverheadTable renders the §IV-E hardware-cost accounting.
func OverheadTable() string {
	var rows [][]string
	for _, n := range []int{2, 4, 8, 16} {
		o := asfsim.Overhead(n)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", o.BitsPerLine),
			fmt.Sprintf("%d", o.ExtraBitsPerLine),
			fmt.Sprintf("%.2fKB", float64(o.ExtraBytes)/1024),
			fmt.Sprintf("%.2f%%", o.ExtraFraction*100),
			fmt.Sprintf("%d", o.PiggybackBits),
		})
	}
	return "Hardware overhead (§IV-E; paper: 4 sub-blocks = 0.75KB = 1.17% of a 64KB L1)\n" +
		stats.Table([]string{"sub-blocks", "bits/line", "extra bits/line", "extra storage", "of L1", "piggyback bits"}, rows)
}

// ---------------------------------------------------------------------------
// Characterization traces (Figs 3, 4, 5)
// ---------------------------------------------------------------------------

// Fig3Workloads are the four programs the paper picks for the time/space
// characterization.
var Fig3Workloads = []string{"vacation", "genome", "kmeans", "intruder"}

// Trace runs one baseline workload with full instrumentation.
func Trace(wl string, scale workloads.Scale, seed uint64, cores int) (*stats.Run, error) {
	cfg := asfsim.DefaultConfig()
	cfg.Seed = seed
	if cores > 0 {
		cfg.Cores = cores
	}
	cfg.TraceSeries = true
	cfg.TraceLines = true
	cfg.TraceOffsets = true
	return asfsim.Run(wl, scale, cfg)
}

// CollectTraces runs Trace for each named workload, up to parallelism at
// a time (0 = GOMAXPROCS, 1 = serial), and returns the runs in input
// order. It shares Collect's pool, so the result does not depend on the
// parallelism level and an error is reported for the earliest failing
// workload.
func CollectTraces(names []string, scale workloads.Scale, seed uint64, cores, parallelism int) ([]*stats.Run, error) {
	runs := make([]*stats.Run, len(names))
	err := forEach(len(names), parallelism, func(i int) (err error) {
		if runs[i], err = Trace(names[i], scale, seed, cores); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// Fig3 renders the cumulative false-conflict / started-transaction series.
func Fig3(r *stats.Run, buckets int) string {
	if r.Series == nil {
		return "no series recorded\n"
	}
	pts := r.Series.Points()
	if len(pts) == 0 {
		return "empty series\n"
	}
	if buckets <= 0 {
		buckets = 20
	}
	last := pts[len(pts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (%s): cumulative transactions started and false conflicts over time\n", r.Workload)
	headers := []string{"time", "tx started", "", "false conflicts", ""}
	var rows [][]string
	for i := 1; i <= buckets; i++ {
		cut := r.Cycles * int64(i) / int64(buckets)
		// Last sample at or before cut.
		idx := sort.Search(len(pts), func(j int) bool { return pts[j].Cycle > cut }) - 1
		var p stats.SeriesPoint
		if idx >= 0 {
			p = pts[idx]
		}
		fracT, fracF := 0.0, 0.0
		if last.TxStarted > 0 {
			fracT = float64(p.TxStarted) / float64(last.TxStarted)
		}
		if last.FalseConflicts > 0 {
			fracF = float64(p.FalseConflicts) / float64(last.FalseConflicts)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%3d%%", i*100/buckets),
			fmt.Sprintf("%d", p.TxStarted), stats.Bar(fracT, 25),
			fmt.Sprintf("%d", p.FalseConflicts), stats.Bar(fracF, 25),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// Fig4 renders the false-conflict-by-line histogram.
func Fig4(r *stats.Run, top int) string {
	if r.Lines == nil {
		return "no line histogram recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (%s): false conflicts by cache line index\n", r.Workload)
	fmt.Fprintf(&b, "distinct lines: %d   total: %d   top-%d concentration: %s\n",
		r.Lines.Distinct(), r.Lines.Total(), top, stats.Pct(r.Lines.Concentration(top)))
	var rows [][]string
	max := uint64(1)
	for _, lc := range r.Lines.Top(top) {
		if lc.Count > max {
			max = lc.Count
		}
	}
	for _, lc := range r.Lines.Top(top) {
		rows = append(rows, []string{
			fmt.Sprintf("%d", lc.Line),
			fmt.Sprintf("%d", lc.Count),
			stats.Bar(float64(lc.Count)/float64(max), 30),
		})
	}
	b.WriteString(stats.Table([]string{"line index", "false conflicts", ""}, rows))
	return b.String()
}

// Fig5 renders the intra-line access-offset histogram.
func Fig5(r *stats.Run) string {
	if r.Offsets == nil {
		return "no offset histogram recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (%s): speculative accesses by byte offset within cache lines\n", r.Workload)
	counts := r.Offsets.Counts()
	var max uint64 = 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var rows [][]string
	for off, c := range counts {
		if c == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", off),
			fmt.Sprintf("%d", c),
			stats.Bar(float64(c)/float64(max), 30),
		})
	}
	b.WriteString(stats.Table([]string{"offset", "accesses", ""}, rows))
	fmt.Fprintf(&b, "dominant access granularity: %d bytes\n", r.Offsets.DominantStride(0.95))
	return b.String()
}

// PriorWork renders the §II comparator table: baseline vs WAR-only
// speculation vs signatures vs the paper's sub-blocking vs perfect, for
// the chosen workloads. It needs a matrix collected with AllDetections.
func (m *Matrix) PriorWork() string {
	systems := []asfsim.Detection{
		asfsim.DetectBaseline, asfsim.DetectWAROnly, asfsim.DetectSignature,
		asfsim.DetectSubBlock4, asfsim.DetectPerfect,
	}
	headers := []string{"benchmark"}
	for _, d := range systems {
		headers = append(headers, d.String())
	}
	var rows [][]string
	for _, wl := range m.Opts.Workloads {
		base := m.Cell(wl, asfsim.DetectBaseline)
		if base == nil {
			continue
		}
		row := []string{wl}
		for _, d := range systems {
			c := m.Cell(wl, d)
			if c == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%+.1f%%", reduction(base.Cycles(), c.Cycles())*100))
		}
		rows = append(rows, row)
	}
	return "Prior-work comparison (execution-time improvement vs baseline)\n" +
		"(WAR-only = SpMT/DPTM coherence decoupling; signature = LogTM-SE-style)\n" +
		stats.Table(headers, rows)
}

// FigureData is the machine-readable form of the figure matrix, for
// scripting against `paperfigs -json`.
type FigureData struct {
	Scale string      `json:"scale"`
	Seeds []uint64    `json:"seeds"`
	Cores int         `json:"cores"`
	Rows  []FigureRow `json:"rows"`
}

// FigureRow is one benchmark's worth of every figure's numbers.
type FigureRow struct {
	Benchmark string `json:"benchmark"`

	// Fig 1 / 2 (baseline).
	FalseRate float64    `json:"falseRate"`
	TypeShare [3]float64 `json:"typeShare"` // WAR, RAW, WAW

	// Fig 8 (analytical, at stats.AvoidableNs granularities).
	Avoidable [4]float64 `json:"avoidable"`

	// Figs 9/10 (nil-safe zeros when the matrix lacks those systems).
	OverallReductionSub4    float64 `json:"overallReductionSub4"`
	OverallReductionPerfect float64 `json:"overallReductionPerfect"`
	TimeImprovementSub4     float64 `json:"timeImprovementSub4"`
	TimeImprovementPerfect  float64 `json:"timeImprovementPerfect"`

	// Time attribution (baseline).
	TxFraction float64 `json:"txFraction"`
}

// JSON assembles the machine-readable figure data.
func (m *Matrix) JSON() *FigureData {
	fd := &FigureData{
		Scale: m.Opts.Scale.String(),
		Seeds: m.Opts.Seeds,
		Cores: m.Opts.Cores,
	}
	for _, wl := range m.Opts.Workloads {
		base := m.Cell(wl, asfsim.DetectBaseline)
		if base == nil {
			continue
		}
		row := FigureRow{
			Benchmark:  wl,
			FalseRate:  base.FalseRate(),
			TxFraction: base.TxFraction(),
		}
		for i := 0; i < int(oracle.NumConflictTypes); i++ {
			row.TypeShare[i] = base.TypeShare(oracle.ConflictType(i))
		}
		for i := range stats.AvoidableNs {
			row.Avoidable[i] = base.AvoidableRate(i)
		}
		if sb4 := m.Cell(wl, asfsim.DetectSubBlock4); sb4 != nil {
			row.OverallReductionSub4 = reduction(base.Conflicts(), sb4.Conflicts())
			row.TimeImprovementSub4 = reduction(base.Cycles(), sb4.Cycles())
		}
		if perf := m.Cell(wl, asfsim.DetectPerfect); perf != nil {
			row.OverallReductionPerfect = reduction(base.Conflicts(), perf.Conflicts())
			row.TimeImprovementPerfect = reduction(base.Cycles(), perf.Cycles())
		}
		fd.Rows = append(fd.Rows, row)
	}
	return fd
}
