// Package sim assembles the full simulated machine — cores, private cache
// hierarchies, the MOESI bus, the ASF engines — and provides the
// deterministic thread scheduler and the transactional runtime that
// workloads program against.
//
// Determinism contract: simulated threads are goroutines, but exactly one
// runs at any instant. There is no scheduler goroutine: when a thread ends
// a simulated operation it picks the next thread itself — always the
// unfinished one with the smallest (wake-time, id) pair — and, unless that
// is itself, wakes it through its resume channel and sleeps on its own.
// Every switch is one channel handoff between the two threads involved, so
// the Go scheduler decides nothing about the interleaving. The same
// configuration and seed therefore produce bit-identical results on every
// run, under any GOMAXPROCS.
package sim

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/backoff"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/retry"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	Cores      int                   // simulated cores == worker threads (Table II: 8)
	Hier       cache.HierarchyConfig // per-core private hierarchy (Table II)
	Core       core.Config           // conflict-detection mode / sub-blocks
	Backoff    backoff.Config        // §V-A exponential backoff manager
	MaxRetries int                   // attempts before the serial-lock fallback (best-effort HTM escape hatch)
	Seed       uint64

	// Fault configures deterministic spurious-abort injection (zero value:
	// no faults; runs are then bit-identical to a build without the
	// subsystem).
	Fault fault.Config

	// Retry selects the retry/fallback policy. The zero value is the
	// Exponential policy with this config's Backoff curve and MaxRetries
	// cap — exactly the pre-policy behaviour.
	Retry retry.Config

	// Watchdog configures the livelock/starvation watchdog (zero Window:
	// off).
	Watchdog WatchdogConfig

	// MaxCycles aborts the simulation with an error if the clock passes
	// it — a watchdog against workload bugs that spin forever (0 = off).
	MaxCycles int64

	// Cancel, when non-nil, aborts the simulation with ErrCanceled once
	// the channel is closed. It is polled between simulated operations,
	// so cancellation is prompt (each op is microseconds of wall time) but
	// never lands mid-operation; the threads are unwound and the machine
	// can be Reset for another run. A run that is never canceled is
	// bit-identical to one with Cancel nil: the check draws no randomness
	// and charges no simulated time.
	Cancel <-chan struct{}

	// CommitCycles is the fixed cost charged for a successful commit
	// (gang-clearing the speculative bits); AbortCycles likewise for the
	// discard on abort.
	CommitCycles int64
	AbortCycles  int64

	// Trace toggles for the Fig 3/4/5 instrumentation (off by default:
	// they cost memory on long runs).
	TraceSeries  bool
	TraceLines   bool
	TraceOffsets bool

	// EventLog, when non-nil, receives the structured transaction/conflict
	// event stream as JSON lines (see Event). Deterministic per seed.
	EventLog io.Writer

	// RecordTrace, when non-nil, receives the workload's logical
	// operation stream (committed attempts only) as a JSON-lines trace
	// replayable with workloads.Replay — see internal/trace.
	RecordTrace io.Writer

	// WatchLines requests per-line intra-line access histograms for the
	// given dense line indices (Result.WatchedOffsets). Combined with the
	// simulator's determinism this enables two-pass analyses: find hot
	// lines in pass one, replay the same seed watching them in pass two.
	WatchLines []uint64
}

// DefaultConfig is the paper's Table II machine with the baseline ASF.
func DefaultConfig() Config {
	return Config{
		Cores:        8,
		Hier:         cache.DefaultHierarchy(),
		Core:         core.Config{Mode: core.ModeBaseline},
		Backoff:      backoff.DefaultConfig(),
		MaxRetries:   64,
		Seed:         1,
		CommitCycles: 12,
		AbortCycles:  30,
	}
}

// ErrCanceled reports that a run was abandoned because Config.Cancel
// fired. Callers distinguish it from workload failures with errors.Is.
var ErrCanceled = errors.New("sim: run canceled")

// Machine is one fully assembled simulated system.
type Machine struct {
	cfg     Config
	geom    mem.Geometry
	memory  *mem.Memory
	alloc   *mem.Allocator
	bus     *coherence.Bus
	hiers   []*cache.Hierarchy
	engines []*core.Engine
	threads []*Thread
	root    *rng.Rand

	now int64 // simulated time of the op being executed

	// done is how a run reports back to Execute: the last thread to finish
	// sends on it, and so does every thread a stopped run unwinds.
	done chan struct{}
	// stopping is set, by the thread that ends the run early, when a run
	// stops before all threads finish: MaxCycles, cancellation (err) or a
	// thread panic (panicked). Parked threads woken while it is set unwind
	// instead of running on.
	stopping bool
	err      error
	panicked string

	// Serial fallback lock (one word in its own line).
	lockAddr mem.Addr
	lockLine mem.LineAddr

	// splitBuf is the reusable SplitByLine scratch for magicCheck. The
	// machine executes exactly one thread op at any instant and magicCheck
	// never re-enters itself, so a single buffer is safe.
	splitBuf []mem.Access

	// Live counters for the traces.
	run          *stats.Run
	txStartedCum uint64
	falseCum     uint64

	// Watchdog progress/abort accounting.
	progressCum uint64 // atomic blocks completed (commit, user abort or fallback)
	abortCum    uint64 // engine aborts, any reason
	wd          watchdogState

	// ledger is the progress oracle: it independently re-derives the
	// exactly-once completion contract from the Launch/Complete stream and
	// fails the run if a retry-policy or watchdog bug violates it.
	ledger *oracle.Ledger

	events   *eventLog
	recorder *trace.Writer

	executed bool
}

// normalizeConfig validates cfg and fills in its defaults, in place. It is
// the single normalization path shared by NewMachine and Machine.Reset, so
// a reset machine runs under exactly the configuration a fresh one would.
func normalizeConfig(cfg *Config) error {
	if cfg.Cores <= 0 {
		return fmt.Errorf("sim: Cores must be positive, got %d", cfg.Cores)
	}
	if err := cfg.Core.Normalize(); err != nil {
		return err
	}
	if err := cfg.Hier.Validate(); err != nil {
		return err
	}
	if cfg.Core.Geom.LineSize != cfg.Hier.L1.LineSize {
		return fmt.Errorf("sim: core geometry line %dB != cache line %dB",
			cfg.Core.Geom.LineSize, cfg.Hier.L1.LineSize)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 64
	}
	if err := cfg.Fault.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Watchdog.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.CommitCycles <= 0 {
		cfg.CommitCycles = 12
	}
	if cfg.AbortCycles <= 0 {
		cfg.AbortCycles = 30
	}
	return nil
}

// newRunRecord builds the empty Run record for a (normalized)
// configuration, including any requested trace instruments.
func newRunRecord(cfg Config) *stats.Run {
	r := &stats.Run{
		Mode:           cfg.Core.Mode.String(),
		SubBlocks:      cfg.Core.Granules(),
		Threads:        cfg.Cores,
		Seed:           cfg.Seed,
		RetryPolicy:    cfg.Retry.Kind.String(),
		FootprintLines: stats.NewHistogram(),
		RetryChains:    stats.NewHistogram(),
	}
	if cfg.TraceSeries {
		r.Series = stats.NewSeries(0)
	}
	if cfg.TraceLines {
		r.Lines = stats.NewLineHistogram()
	}
	if cfg.TraceOffsets {
		r.Offsets = stats.NewOffsetHist(cfg.Core.Geom.LineSize)
	}
	if len(cfg.WatchLines) > 0 {
		r.WatchedOffsets = make(map[uint64]*stats.OffsetHist, len(cfg.WatchLines))
		for _, l := range cfg.WatchLines {
			r.WatchedOffsets[l] = stats.NewOffsetHist(cfg.Core.Geom.LineSize)
		}
	}
	return r
}

// hooksFor returns the engine hook set for the machine's current
// configuration (the spec-access hook costs a closure call per speculative
// access, so it is wired only when an instrument needs it).
func (m *Machine) hooksFor(cfg Config) core.Hooks {
	hooks := core.Hooks{
		OnConflict: m.onConflict,
		OnAbort:    m.onAbort,
	}
	if cfg.TraceOffsets || len(cfg.WatchLines) > 0 {
		hooks.OnSpecAccess = m.onSpecAccess
	}
	return hooks
}

// NewMachine builds a machine; cfg.Core is normalized in place.
func NewMachine(cfg Config) (*Machine, error) {
	if err := normalizeConfig(&cfg); err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:    cfg,
		geom:   cfg.Core.Geom,
		memory: mem.NewMemory(),
		bus:    coherence.NewBus(cfg.Cores, cfg.Core.Geom),
		root:   rng.New(cfg.Seed),
		done:   make(chan struct{}),
		run:    newRunRecord(cfg),
	}
	m.alloc = mem.NewAllocator(m.geom, mem.Addr(m.geom.LineSize))
	m.bus.SetSubBlocks(cfg.Core.Granules())
	if cfg.Core.Mode != core.ModeSignature {
		// Skip probe deliveries to cores that never issued a bus
		// transaction for the line — for them Snoop is a no-op, so this
		// is invisible to both the protocol and conflict detection. The
		// exception is Bloom signatures, which must alias-hit on lines
		// the core never touched (see coherence.EnableSnoopFilter).
		m.bus.EnableSnoopFilter()
	}
	m.ledger = oracle.NewLedger(cfg.Cores)

	if cfg.EventLog != nil {
		m.events = newEventLog(cfg.EventLog)
	}
	if cfg.RecordTrace != nil {
		m.recorder = trace.NewWriter(cfg.RecordTrace)
	}

	if cfg.Watchdog.Window > 0 {
		m.wd.windowEnd = cfg.Watchdog.Window
	}

	hooks := m.hooksFor(cfg)
	for i := 0; i < cfg.Cores; i++ {
		h := cache.NewHierarchy(cfg.Hier)
		e := core.NewEngine(i, cfg.Core, m.bus, h, hooks)
		m.hiers = append(m.hiers, h)
		m.engines = append(m.engines, e)
		m.bus.Register(i, e)
	}

	// The serial-fallback lock lives in its own line so its coherence
	// traffic never false-shares with workload data.
	m.lockAddr = m.alloc.AllocLine(8)
	m.lockLine = m.geom.Line(m.lockAddr)
	return m, nil
}

// Reset rewinds an executed machine to the fresh-from-NewMachine state
// under a (possibly different) configuration, reusing every arena the
// machine already grew: pages, cache ways, the dense line tables, engines
// and thread scratch. The core count, cache hierarchy and line geometry are
// structural and cannot change across a reset.
//
// A reset machine is bit-identical to a fresh one: the root RNG is
// reseeded, the line indexer is cleared so dense indices are re-assigned in
// first-touch order, and the allocator restarts at the same base — the
// next Execute draws exactly the sequence a new machine would. Any executed
// machine can be reset, including one whose run errored or panicked:
// Execute returns only after every worker goroutine has exited.
func (m *Machine) Reset(cfg Config) error {
	if err := normalizeConfig(&cfg); err != nil {
		return err
	}
	if err := m.checkReset(cfg); err != nil {
		return err
	}

	m.cfg = cfg
	m.geom = cfg.Core.Geom
	m.memory.Reset()
	m.alloc.Reset(0)
	m.root.Seed(cfg.Seed)

	m.bus.Reset()
	m.bus.SetSubBlocks(cfg.Core.Granules())
	if cfg.Core.Mode != core.ModeSignature {
		m.bus.EnableSnoopFilter()
	}
	hooks := m.hooksFor(cfg)
	for i := range m.engines {
		m.hiers[i].Reset()
		m.engines[i].Reset(cfg.Core, hooks)
	}

	m.now = 0
	m.splitBuf = m.splitBuf[:0]
	m.run = newRunRecord(cfg)
	m.txStartedCum, m.falseCum = 0, 0
	m.progressCum, m.abortCum = 0, 0
	m.wd = watchdogState{}
	if cfg.Watchdog.Window > 0 {
		m.wd.windowEnd = cfg.Watchdog.Window
	}
	m.ledger = oracle.NewLedger(cfg.Cores)
	m.events = nil
	if cfg.EventLog != nil {
		m.events = newEventLog(cfg.EventLog)
	}
	m.recorder = nil
	if cfg.RecordTrace != nil {
		m.recorder = trace.NewWriter(cfg.RecordTrace)
	}

	m.lockAddr = m.alloc.AllocLine(8)
	m.lockLine = m.geom.Line(m.lockAddr)
	// Verify the wipe: the lock word must read zero from reset memory, and
	// the lock line's deterministic placement must match a fresh machine's.
	if got := m.memory.LoadUint(m.lockAddr, 8); got != 0 {
		return fmt.Errorf("sim: reset left dirty memory (lock word %#x)", got)
	}
	m.executed = false
	m.stopping, m.err, m.panicked = false, nil, ""
	return nil
}

// checkReset reports whether the machine can be Reset under the
// normalized cfg: the core count, cache hierarchy and line geometry are
// structural.
func (m *Machine) checkReset(cfg Config) error {
	if cfg.Cores != m.cfg.Cores {
		return fmt.Errorf("sim: reset with %d cores on a %d-core machine", cfg.Cores, m.cfg.Cores)
	}
	if cfg.Hier != m.cfg.Hier {
		return fmt.Errorf("sim: reset cannot change the cache hierarchy")
	}
	if cfg.Core.Geom != m.cfg.Core.Geom {
		return fmt.Errorf("sim: reset cannot change the line geometry")
	}
	return nil
}

// onConflict records conflict events for the trace instruments and the
// Fig. 8 avoidability analysis. The canonical counters are aggregated from
// the engines after the run.
func (m *Machine) onConflict(c core.Conflict) {
	m.logConflict(c)
	if !c.Verdict.True {
		m.falseCum++
		for i, n := range stats.AvoidableNs {
			if m.avoidableAt(c, n) {
				m.run.AvoidableBy[i]++
			}
		}
		if m.run.Lines != nil {
			m.run.Lines.Add(m.geom.LineIndex(c.Line))
		}
		if m.run.Series != nil {
			m.run.Series.Tick(m.now, m.txStartedCum, m.falseCum)
		}
	}
}

// avoidableAt replays a detected conflict at n-granule sub-blocking
// (§III-B / Fig. 8): the conflict would have been avoided iff the probe's
// sub-block span does not overlap the holder's footprint sub-blocks (write
// set for a read probe; read+write sets for an invalidating probe).
func (m *Machine) avoidableAt(c core.Conflict, n int) bool {
	fp := m.engines[c.Holder].Footprint()
	probe := m.geom.SubBlockMask(c.Off, c.Size, n)
	holder := fp.WriteSubBlockMask(c.Line, n)
	if c.Invalidating {
		holder |= fp.ReadSubBlockMask(c.Line, n)
	}
	return probe&holder == 0
}

// onSpecAccess feeds the Fig 5 intra-line offset histogram and any
// per-line watches, skipping the runtime's own lock line.
func (m *Machine) onSpecAccess(_ int, line mem.LineAddr, off, _ int, _ bool) {
	if line == m.lockLine {
		return
	}
	if m.run.Offsets != nil {
		m.run.Offsets.Add(off)
	}
	if m.run.WatchedOffsets != nil {
		if h, ok := m.run.WatchedOffsets[m.geom.LineIndex(line)]; ok {
			h.Add(off)
		}
	}
}

// onAbort counts engine aborts for the watchdog and forwards to the event
// log.
func (m *Machine) onAbort(coreID int, reason core.AbortReason) {
	m.abortCum++
	m.logAbort(coreID, reason)
}

// noteTxStart ticks the started-transaction series.
func (m *Machine) noteTxStart(core int) {
	m.logTxBegin(core)
	m.txStartedCum++
	if m.run.Series != nil {
		m.run.Series.Tick(m.now, m.txStartedCum, m.falseCum)
	}
}

// magicCheck implements the Perfect system's ideal byte-exact detection:
// every access (speculative or not) is checked against every other core's
// live footprint; truly conflicting holders abort. No-op in other modes.
func (m *Machine) magicCheck(requester int, a mem.Addr, size int, write bool) {
	if m.cfg.Core.Mode != core.ModePerfect {
		return
	}
	m.splitBuf = m.geom.SplitByLineInto(m.splitBuf, a, size)
	for _, p := range m.splitBuf {
		for _, e := range m.engines {
			if e.ID() == requester {
				continue
			}
			e.MagicProbe(requester, p.Line, p.Off, p.Size, write)
		}
	}
}

// ---------------------------------------------------------------------------
// Accessors used by workloads during Setup and by tests
// ---------------------------------------------------------------------------

// Alloc returns the machine's address-space allocator.
func (m *Machine) Alloc() *mem.Allocator { return m.alloc }

// Memory returns the simulated physical memory (Setup initializes data
// directly; at simulated time zero that is free).
func (m *Machine) Memory() *mem.Memory { return m.memory }

// Geometry returns the line geometry.
func (m *Machine) Geometry() mem.Geometry { return m.geom }

// Threads returns the number of worker threads (== cores).
func (m *Machine) Threads() int { return m.cfg.Cores }

// Config returns the run configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetupRand returns a deterministic generator for workload Setup
// (independent of the per-thread streams).
func (m *Machine) SetupRand() *rng.Rand { return m.root.Fork(1 << 32) }

// Engine exposes core id's ASF engine (tests).
func (m *Machine) Engine(id int) *core.Engine { return m.engines[id] }

// Bus exposes the coherence bus (tests).
func (m *Machine) Bus() *coherence.Bus { return m.bus }

// Now returns the simulated time of the op currently executing.
func (m *Machine) Now() int64 { return m.now }

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Workload is a transactional program the machine can execute. One value
// per run: Setup allocates and initializes shared data, Run is executed by
// every worker thread (distinguished by t.ID()), Validate checks functional
// correctness of the final memory image afterwards.
type Workload interface {
	Name() string
	Description() string
	Setup(m *Machine)
	Run(t *Thread)
	Validate(m *Machine) error
}

// Execute runs the workload to completion and returns the aggregated
// statistics. A Machine runs one workload; Reset rewinds it for another
// Execute. Execute returns only once every worker goroutine has exited,
// also when the run errors (MaxCycles, cancellation); a panic in workload
// code is re-raised here, on the caller's goroutine, after the other
// threads have been unwound.
func (m *Machine) Execute(w Workload) (*stats.Run, error) {
	if m.executed {
		return nil, fmt.Errorf("sim: machine already executed a workload")
	}
	m.executed = true
	m.run.Workload = w.Name()

	w.Setup(m)

	// The retry policy inherits the machine's MaxRetries cap and backoff
	// curve unless its config overrides them.
	rc := m.cfg.Retry
	if rc.MaxRetries == 0 {
		rc.MaxRetries = m.cfg.MaxRetries
	}
	if rc.Backoff == (backoff.Config{}) {
		rc.Backoff = m.cfg.Backoff
	}
	for i := 0; i < m.cfg.Cores; i++ {
		var t *Thread
		if i < len(m.threads) {
			// Reset machine: reuse the thread (and its rng scratch, Tx
			// buffers and resume channel) from the previous run.
			t = m.threads[i]
			t.resetForRun()
		} else {
			t = &Thread{
				id:         i,
				m:          m,
				eng:        m.engines[i],
				rng:        &rng.Rand{},
				policyRand: &rng.Rand{},
				faultRand:  &rng.Rand{},
				resume:     make(chan struct{}),
			}
			t.tx.t = t
			m.threads = append(m.threads, t)
		}
		// Threads start staggered (thread-spawn cost), which avoids an
		// artificial time-zero convoy on the first shared structure.
		t.wake = int64(i) * 37
		t.lastProgress = t.wake
		m.root.ForkInto(t.rng, uint64(i))
		// The policy takes over the rng stream the backoff manager used to
		// own, so the default Exponential policy reproduces pre-policy runs
		// bit-for-bit. The fault fork is gated: forking consumes a draw
		// from the parent stream, so an unconditional fork would shift
		// every fault-free run.
		t.rng.ForkInto(t.policyRand, 0xb0ff)
		t.policy = retry.New(rc, t.policyRand)
		t.fault = nil
		if m.cfg.Fault.Enabled() {
			t.rng.ForkInto(t.faultRand, 0xfa17)
			t.fault = fault.New(m.cfg.Fault, t.faultRand)
		}
	}
	for _, t := range m.threads {
		go t.main(w.Run)
	}

	// Start the first thread; from here on the threads hand control to
	// each other until the last one finishes or one stops the run.
	if first, err := m.schedule(); err != nil {
		m.stop(err)
	} else {
		first.resume <- struct{}{}
		<-m.done
	}
	if m.stopping {
		// Unwind every parked thread, one at a time, so none outlives the
		// run (a parked goroutine would pin the whole machine).
		for _, t := range m.threads {
			if !t.finished {
				t.resume <- struct{}{}
				<-m.done
			}
		}
		if m.panicked != "" {
			panic(m.panicked)
		}
		return m.run, m.err
	}

	m.aggregate()
	if err := m.ledger.Check(); err != nil {
		return m.run, fmt.Errorf("sim: %w", err)
	}
	if err := w.Validate(m); err != nil {
		return m.run, fmt.Errorf("sim: workload %s failed validation: %w", w.Name(), err)
	}
	return m.run, nil
}

// schedule picks the thread to run next: the unfinished thread with the
// smallest (wake, id), or nil when every thread has finished. It is called
// between operations by the thread that just ended one (and once by
// Execute to start the run), and returns an error, instead of a thread,
// if the run must stop: Config.Cancel fired or the MaxCycles watchdog
// tripped.
func (m *Machine) schedule() (*Thread, error) {
	var next *Thread
	active := 0
	for _, t := range m.threads {
		if t.finished {
			continue
		}
		active++
		if next == nil || t.wake < next.wake || (t.wake == next.wake && t.id < next.id) {
			next = t
		}
	}
	if next == nil {
		return nil, nil
	}
	// Watchdog windows close strictly between ops: every boundary up to
	// the next resume time is processed before the thread runs.
	if w := m.cfg.Watchdog.Window; w > 0 {
		for next.wake >= m.wd.windowEnd {
			m.watchdogTick(m.wd.windowEnd)
			m.wd.windowEnd += w
		}
	}
	if m.cfg.Cancel != nil {
		select {
		case <-m.cfg.Cancel:
			return nil, fmt.Errorf("%w at cycle %d with %d threads still running",
				ErrCanceled, m.now, active)
		default:
		}
	}
	if m.cfg.MaxCycles > 0 && next.wake > m.cfg.MaxCycles {
		return nil, fmt.Errorf("sim: watchdog: simulation passed %d cycles with %d threads still running",
			m.cfg.MaxCycles, active)
	}
	m.now = next.wake
	return next, nil
}

// stop ends the run early with err. Only the thread (or Execute) that
// currently holds control calls it.
func (m *Machine) stop(err error) {
	m.stopping = true
	m.err = err
}

// aggregate folds per-engine and bus statistics into the Run record.
func (m *Machine) aggregate() {
	r := m.run
	for _, e := range m.engines {
		s := e.Stats
		r.TxStarted += s.TxBegins
		r.TxCommitted += s.TxCommits
		r.TxAborted += s.TxAborts
		for i := range s.AbortsBy {
			if i < len(r.AbortsBy) {
				r.AbortsBy[i] += s.AbortsBy[i]
			}
		}
		r.Conflicts += s.Conflicts
		r.FalseConflicts += s.FalseConf
		for i := 0; i < int(oracle.NumConflictTypes); i++ {
			r.ByType[i] += s.ByType[i]
			r.FalseByType[i] += s.FalseBy[i]
		}
		r.DirtyMarks += s.DirtyMarks
		r.DirtyRereq += s.DirtyRereq
		r.RetainedCaught += s.RetainedChecksCaught
		r.Nacks += s.Nacks
		r.SpeculatedWARs += s.SpeculatedWARs
		r.SigAliasFalse += s.SigAliasFalse
		r.SpecLoads += s.SpecLoads
		r.SpecStores += s.SpecStores
	}
	var minDone, maxDone uint64
	activeThreads := 0
	for _, t := range m.threads {
		r.TxLaunched += t.launched
		r.Retries += t.retries
		r.Fallbacks += t.fallbacks
		r.FallbacksEarly += t.fallbacksEarly
		r.BlocksCommitted += t.blocksCommitted
		r.BlocksUserAborted += t.blocksUserAborted
		r.ValidationChecks += t.valChecks
		for k, n := range t.spuriousBy {
			if k < len(r.SpuriousBy) {
				r.SpuriousBy[k] += n
			}
		}
		r.CyclesNonTx += t.bucketTime[bucketNonTx]
		r.CyclesInTx += t.bucketTime[bucketTx]
		r.CyclesInBackoff += t.bucketTime[bucketBackoff]
		if t.maxRetry > r.MaxRetrySeen {
			r.MaxRetrySeen = t.maxRetry
		}
		if t.wake > r.Cycles {
			r.Cycles = t.wake
		}
		if t.launched > 0 {
			d := t.blocksDone()
			if activeThreads == 0 || d < minDone {
				minDone = d
			}
			if activeThreads == 0 || d > maxDone {
				maxDone = d
			}
			activeThreads++
		}
	}
	r.SpuriousAborts = r.AbortsBy[core.ReasonSpurious]
	// StarvationIndex: imbalance of completed blocks across the threads
	// that entered any (1 - min/max; 0 = perfectly balanced).
	if activeThreads > 1 && maxDone > 0 {
		r.StarvationIndex = 1 - float64(minDone)/float64(maxDone)
	}
	bs := m.bus.Stats
	r.ProbesShared = bs.ProbesShared
	r.ProbesInvalidate = bs.ProbesInvalidate
	r.DataFromRemote = bs.DataFromRemote
	r.DataFromMemory = bs.DataFromMemory
	r.PiggybackMasks = bs.PiggybackedMasks
}

// CheckCoherence verifies the MOESI invariants over the whole machine
// (used by tests after runs).
func (m *Machine) CheckCoherence() error { return m.bus.CheckAllInvariants() }

// ThreadIDs returns the worker thread ids (sorted), for tests.
func (m *Machine) ThreadIDs() []int {
	ids := make([]int, 0, len(m.threads))
	for _, t := range m.threads {
		ids = append(ids, t.id)
	}
	sort.Ints(ids)
	return ids
}
