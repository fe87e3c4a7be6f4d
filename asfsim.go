// Package asfsim is a simulator-backed reproduction of "Reducing False
// Transactional Conflicts With Speculative Sub-blocking State — An
// Empirical Study for ASF Transactional Memory System" (Nai & Lee,
// IEEE IPDPSW 2013).
//
// It models AMD's Advanced Synchronization Facility (ASF) hardware
// transactional memory on an 8-core MOESI machine, the paper's proposed
// speculative sub-blocking conflict-detection state, an ideal
// zero-false-conflict system, the §II prior-work comparators (WAR-only
// coherence decoupling and LogTM-style signatures), both conflict-
// resolution policies, and Go re-implementations of the ten STAMP /
// RMS-TM kernels the paper evaluates plus the two it excluded (bayes,
// yada). Every figure and table of the paper's evaluation can be
// regenerated (see cmd/paperfigs and EXPERIMENTS.md), workloads can be
// recorded and replayed trace-driven (RunReplay), and each run emits a
// deterministic structured event log on request.
//
// Quick start:
//
//	cfg := asfsim.DefaultConfig()
//	cfg.Detection = asfsim.DetectSubBlock4
//	res, err := asfsim.Run("vacation", asfsim.ScaleSmall, cfg)
//	fmt.Println(res.FalseConflictRate())
//
// Compare systems on one workload:
//
//	cmp, err := asfsim.RunComparison("kmeans", asfsim.ScaleSmall, asfsim.DefaultConfig())
//	fmt.Println(cmp.FalseConflictReduction(asfsim.DetectSubBlock4))
package asfsim

import (
	"fmt"
	"io"
	"time"

	"repro/internal/backoff"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Detection selects the conflict-detection system under test.
type Detection int

const (
	// DetectBaseline is the original ASF: whole-line SR/SW bits.
	DetectBaseline Detection = iota
	// DetectSubBlock2..16 are the paper's sub-blocking configurations.
	DetectSubBlock2
	DetectSubBlock4
	DetectSubBlock8
	DetectSubBlock16
	// DetectPerfect is the ideal zero-false-conflict system.
	DetectPerfect
	// DetectWAROnly is the §II prior-work comparator (SpMT/DPTM-style
	// coherence decoupling): WAR conflicts speculated through with
	// commit-time value validation; RAW/WAW still abort eagerly.
	DetectWAROnly
	// DetectSignature is the LogTM-SE-style comparator: line-granularity
	// Bloom-signature detection (1024 bits per set by default; see
	// Config.SignatureBits).
	DetectSignature
)

// Detections lists the paper's six evaluated systems in sweep order (the
// §II comparators DetectWAROnly and DetectSignature are extra and are
// listed in AllDetections).
var Detections = []Detection{
	DetectBaseline, DetectSubBlock2, DetectSubBlock4,
	DetectSubBlock8, DetectSubBlock16, DetectPerfect,
}

// AllDetections additionally includes the prior-work comparators.
var AllDetections = append(append([]Detection{}, Detections...), DetectWAROnly, DetectSignature)

func (d Detection) String() string {
	switch d {
	case DetectBaseline:
		return "baseline"
	case DetectSubBlock2:
		return "subblock-2"
	case DetectSubBlock4:
		return "subblock-4"
	case DetectSubBlock8:
		return "subblock-8"
	case DetectSubBlock16:
		return "subblock-16"
	case DetectPerfect:
		return "perfect"
	case DetectWAROnly:
		return "waronly"
	case DetectSignature:
		return "signature"
	}
	return fmt.Sprintf("Detection(%d)", int(d))
}

// ParseDetection resolves a detection-system name ("baseline",
// "subblock-4", "perfect", "waronly", "signature", ...) as accepted by
// the -detect CLI flag and the asfd job API.
func ParseDetection(s string) (Detection, error) {
	for _, d := range AllDetections {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("asfsim: unknown detection %q", s)
}

// ParseScale resolves a scale name ("tiny", "small", "medium").
func ParseScale(s string) (Scale, error) { return workloads.ParseScale(s) }

// SubBlocks returns the sub-block count (0 for baseline/perfect).
func (d Detection) SubBlocks() int {
	switch d {
	case DetectSubBlock2:
		return 2
	case DetectSubBlock4:
		return 4
	case DetectSubBlock8:
		return 8
	case DetectSubBlock16:
		return 16
	}
	return 0
}

// coreConfig translates a Detection into the engine configuration.
func (d Detection) coreConfig() core.Config {
	switch d {
	case DetectPerfect:
		return core.Config{Mode: core.ModePerfect}
	case DetectBaseline:
		return core.Config{Mode: core.ModeBaseline}
	case DetectWAROnly:
		return core.Config{Mode: core.ModeWAROnly}
	case DetectSignature:
		return core.Config{Mode: core.ModeSignature}
	default:
		return core.Config{
			Mode:               core.ModeSubBlock,
			SubBlocks:          d.SubBlocks(),
			RetainInvalidState: true,
			DirtyProtocol:      true,
		}
	}
}

// Scale re-exports the workload problem sizes.
type Scale = workloads.Scale

// Workload scales.
const (
	ScaleTiny   = workloads.ScaleTiny
	ScaleSmall  = workloads.ScaleSmall
	ScaleMedium = workloads.ScaleMedium
)

// Result is the aggregated outcome of one run (alias of the internal
// record; see its fields for the full metric set).
type Result = stats.Run

// Config parameterizes a run.
type Config struct {
	Detection Detection
	Cores     int    // default 8 (Table II)
	Seed      uint64 // default 1
	// MaxRetries before the serial-lock fallback; default 64.
	MaxRetries int
	// MaxCycles aborts a runaway simulation with an error (0 = no limit).
	MaxCycles int64
	// Trace toggles for the characterization figures (3/4/5).
	TraceSeries, TraceLines, TraceOffsets bool

	// EventLog, when non-nil, receives the structured transaction and
	// conflict event stream as JSON lines (decode with DecodeEvents).
	EventLog io.Writer

	// WatchLines requests per-line intra-line access histograms
	// (Result.WatchedOffsets) for the given dense line indices.
	WatchLines []uint64

	// RecordTrace, when non-nil, receives the workload's logical op
	// stream as a replayable JSON-lines trace (see RunReplay).
	RecordTrace io.Writer

	// SignatureBits sizes each Bloom signature for DetectSignature
	// (power of two; 0 = 1024).
	SignatureBits int

	// PiggybackPenalty charges extra cycles per masked data reply
	// (default 0 = the paper's §IV-E "almost negligible" claim).
	PiggybackPenalty int64

	// HolderWins switches conflict resolution from ASF's requester-wins
	// to NACK-based stalling (LogTM-style); supported for baseline and
	// sub-block detection.
	HolderWins bool

	// Ablation knobs (both default true for sub-block detection; they
	// have no effect on baseline/perfect).
	DisableRetainInvalid bool // drop spec state from invalidated lines (§IV-D-2 off)
	DisableDirtyProtocol bool // no Dirty sub-block state (§IV-C off)
	DisableBackoff       bool // no exponential backoff (§V-A off)

	// Fault configures deterministic spurious-abort injection (interrupts,
	// TLB misses, capacity noise). The zero value injects nothing and
	// leaves every run bit-identical to one without the subsystem.
	Fault FaultConfig

	// Retry selects the retry/fallback policy for aborted transactions.
	// The zero value is RetryExponential with the run's backoff curve and
	// MaxRetries cap — the paper's §V-A behaviour.
	Retry RetryConfig

	// Watchdog configures the livelock/starvation watchdog (zero Window:
	// off). With Mitigate false it is purely observational.
	Watchdog WatchdogConfig

	// Cancel, when non-nil, aborts the simulation with ErrCanceled as soon
	// as the channel is closed (checked between simulated operations). It
	// is the wall-clock escape hatch the asfd service wires per-job
	// timeouts to; the simulated-time analogue is MaxCycles. A run that is
	// never canceled is bit-identical to one with Cancel nil.
	Cancel <-chan struct{}

	// Phases, when non-nil, receives WALL-CLOCK timings for the run's
	// internal phases as they complete: "workload.build" (constructing
	// the workload), "machine.reset" or "machine.build" (acquiring the
	// simulation machine — recycled from the pool vs. built fresh), and
	// "execute" (the simulation itself). Purely observational: it sees
	// wall time only, never simulated state, so it cannot perturb
	// results. Nil (the default) adds zero overhead and zero allocations
	// to the run path.
	Phases func(phase string, d time.Duration)
}

// ErrCanceled is returned (wrapped) by Run when Config.Cancel fires
// before the simulation completes.
var ErrCanceled = sim.ErrCanceled

// Robustness-subsystem configuration types (see the internal packages for
// field-level documentation).
type (
	// FaultConfig sets the per-kind spurious-abort rates.
	FaultConfig = fault.Config
	// RetryConfig selects and parameterizes the retry/fallback policy.
	RetryConfig = retry.Config
	// RetryPolicy names a retry/fallback policy kind.
	RetryPolicy = retry.Kind
	// WatchdogConfig parameterizes the livelock/starvation watchdog.
	WatchdogConfig = sim.WatchdogConfig
)

// Retry/fallback policies selectable via Config.Retry.Kind.
const (
	// RetryExponential is the §V-A doubling backoff with the MaxRetries
	// hard cap (the default).
	RetryExponential = retry.Exponential
	// RetryImmediate retries with no backoff.
	RetryImmediate = retry.Immediate
	// RetryLinear grows the backoff linearly.
	RetryLinear = retry.Linear
	// RetryAdaptive demotes to the serial fallback early under
	// pathological contention (consecutive-abort runs or a sustained
	// abort rate).
	RetryAdaptive = retry.AdaptiveSerialize
)

// ParseRetryPolicy resolves a policy name ("exponential", "immediate",
// "linear", "adaptive") as accepted by the -retry-policy CLI flag.
func ParseRetryPolicy(s string) (RetryPolicy, error) { return retry.ParseKind(s) }

// DefaultConfig returns the paper's evaluation configuration: 8 cores,
// Table II hierarchy, baseline detection, backoff on.
func DefaultConfig() Config {
	return Config{Detection: DetectBaseline, Cores: 8, Seed: 1, MaxRetries: 64}
}

// simConfig assembles the internal machine configuration.
func (c Config) simConfig() sim.Config {
	sc := sim.DefaultConfig()
	if c.Cores > 0 {
		sc.Cores = c.Cores
	}
	if c.Seed != 0 {
		sc.Seed = c.Seed
	}
	if c.MaxRetries > 0 {
		sc.MaxRetries = c.MaxRetries
	}
	sc.MaxCycles = c.MaxCycles
	sc.Core = c.Detection.coreConfig()
	if c.SignatureBits != 0 {
		sc.Core.SignatureBits = c.SignatureBits
	}
	sc.Core.PiggybackPenalty = c.PiggybackPenalty
	if c.HolderWins {
		sc.Core.Resolution = core.HolderWins
	}
	if c.DisableRetainInvalid {
		sc.Core.RetainInvalidState = false
	}
	if c.DisableDirtyProtocol {
		sc.Core.DirtyProtocol = false
	}
	if c.DisableBackoff {
		sc.Backoff = backoff.Config{BaseCycles: 1, MaxCycles: 1, Jitter: 0}
	}
	sc.Fault = c.Fault
	sc.Retry = c.Retry
	sc.Watchdog = c.Watchdog
	sc.Cancel = c.Cancel
	sc.TraceSeries = c.TraceSeries
	sc.TraceLines = c.TraceLines
	sc.TraceOffsets = c.TraceOffsets
	sc.EventLog = c.EventLog
	sc.WatchLines = c.WatchLines
	sc.RecordTrace = c.RecordTrace
	return sc
}

// MachineDescription returns the Table II machine parameters used by every
// run (for reports).
func MachineDescription() cache.HierarchyConfig { return cache.DefaultHierarchy() }

// Overhead returns the §IV-E hardware-cost accounting for n sub-blocks on
// the Table II L1.
func Overhead(n int) core.Overhead {
	h := cache.DefaultHierarchy()
	return core.ComputeOverhead(h.L1.SizeBytes, h.L1.LineSize, n)
}

// Workloads returns the paper's evaluated workload names in Table III
// order.
func Workloads() []string { return workloads.Names() }

// ExtraWorkloads returns the workloads reconstructed from the paper's
// exclusions (bayes, yada) — runnable by name but kept out of the
// regenerated paper tables.
func ExtraWorkloads() []string { return workloads.ExtraNames() }

// DescribeWorkload returns the Table III description of a workload.
func DescribeWorkload(name string) string { return workloads.Describe(name) }

// Run executes one workload at the given scale under cfg and returns its
// statistics. The workload's functional validation runs afterwards; a
// validation failure (which would mean the modelled TM broke atomicity)
// is returned as an error alongside the collected statistics.
func Run(workload string, scale Scale, cfg Config) (*Result, error) {
	var buildStart time.Time
	if cfg.Phases != nil {
		buildStart = time.Now()
	}
	w, err := workloads.New(workload, scale)
	if err != nil {
		return nil, err
	}
	if cfg.Phases != nil {
		cfg.Phases("workload.build", time.Since(buildStart))
	}
	return runPooled(w, cfg)
}

// runPooled executes w on a machine from the process-wide pool. A reset
// pooled machine is bit-identical to a fresh one, so results are exactly
// those of a dedicated NewMachine; that holds for a machine whose last run
// errored too, since Execute unwinds every thread before it returns. The
// hot path (Phases nil)
// stays allocation-free; with a hook installed, acquisition and
// execution wall times are reported as run phases.
func runPooled(w sim.Workload, cfg Config) (*Result, error) {
	if cfg.Phases == nil {
		m, err := sim.DefaultPool.Get(cfg.simConfig())
		if err != nil {
			return nil, err
		}
		res, err := m.Execute(w)
		sim.DefaultPool.Put(m)
		return res, err
	}

	acquireStart := time.Now()
	m, reused, err := sim.DefaultPool.GetTracked(cfg.simConfig())
	if err != nil {
		return nil, err
	}
	phase := "machine.build"
	if reused {
		phase = "machine.reset"
	}
	cfg.Phases(phase, time.Since(acquireStart))

	execStart := time.Now()
	res, err := m.Execute(w)
	cfg.Phases("execute", time.Since(execStart))
	sim.DefaultPool.Put(m)
	return res, err
}

// Comparison holds one workload's results across detection systems,
// aligned by the Detections slice.
type Comparison struct {
	Workload string
	Scale    Scale
	Results  map[Detection]*Result
}

// RunComparison runs the workload under every detection system with
// identical seeds and returns the aligned results.
func RunComparison(workload string, scale Scale, cfg Config) (*Comparison, error) {
	cmp := &Comparison{Workload: workload, Scale: scale, Results: make(map[Detection]*Result)}
	for _, d := range Detections {
		c := cfg
		c.Detection = d
		r, err := Run(workload, scale, c)
		if err != nil {
			return nil, fmt.Errorf("%s under %v: %w", workload, d, err)
		}
		cmp.Results[d] = r
	}
	return cmp, nil
}

// FalseConflictReduction is Fig. 8's metric for one system: the fraction
// of the baseline's false conflicts that d eliminates.
func (c *Comparison) FalseConflictReduction(d Detection) float64 {
	base, ok1 := c.Results[DetectBaseline]
	r, ok2 := c.Results[d]
	if !ok1 || !ok2 {
		return 0
	}
	return stats.Reduction(base.FalseConflicts, r.FalseConflicts)
}

// OverallConflictReduction is Fig. 9's metric: the fraction of ALL
// baseline conflicts (true + false) that d eliminates.
func (c *Comparison) OverallConflictReduction(d Detection) float64 {
	base, ok1 := c.Results[DetectBaseline]
	r, ok2 := c.Results[d]
	if !ok1 || !ok2 {
		return 0
	}
	return stats.Reduction(base.Conflicts, r.Conflicts)
}

// ExecTimeImprovement is Fig. 10's metric: 1 - cycles(d)/cycles(baseline),
// i.e. the fractional execution-time reduction versus the baseline ASF.
func (c *Comparison) ExecTimeImprovement(d Detection) float64 {
	base, ok1 := c.Results[DetectBaseline]
	r, ok2 := c.Results[d]
	if !ok1 || !ok2 || base.Cycles == 0 {
		return 0
	}
	return 1 - float64(r.Cycles)/float64(base.Cycles)
}
