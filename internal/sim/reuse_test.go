// Machine-reuse equivalence tests. They live in an external test package
// because they drive real workloads (package workloads imports sim).
package sim_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

type runSpec struct {
	name     string
	workload string
	cfg      sim.Config
}

func baseCfg(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.Seed = seed
	return cfg
}

// reuseSpecs is a gauntlet of configurations that exercise every subsystem
// Reset must rewind: detection modes (including signatures, which disable
// the snoop filter), fault injection (which changes the rng fork pattern),
// the watchdog, holder-wins NACKs and trace instruments.
func reuseSpecs() []runSpec {
	specs := []runSpec{}

	cfg := baseCfg(1)
	specs = append(specs, runSpec{"baseline-kmeans", "kmeans", cfg})

	cfg = baseCfg(7)
	cfg.Core = core.Config{Mode: core.ModeSubBlock, SubBlocks: 4,
		RetainInvalidState: true, DirtyProtocol: true}
	specs = append(specs, runSpec{"subblock4-vacation", "vacation", cfg})

	cfg = baseCfg(3)
	cfg.Core = core.Config{Mode: core.ModeSignature}
	specs = append(specs, runSpec{"signature-kmeans", "kmeans", cfg})

	cfg = baseCfg(5)
	cfg.Fault = fault.Config{InterruptRate: 2e-5, TLBRate: 1e-5, CapacityNoiseRate: 0.01}
	specs = append(specs, runSpec{"faults-kmeans", "kmeans", cfg})

	cfg = baseCfg(9)
	cfg.Watchdog = sim.WatchdogConfig{Window: 20000, Mitigate: true}
	cfg.TraceSeries = true
	cfg.TraceOffsets = true
	specs = append(specs, runSpec{"watchdog-traced-intruder", "intruder", cfg})

	cfg = baseCfg(11)
	cfg.Core = core.Config{Mode: core.ModeSubBlock, SubBlocks: 8,
		RetainInvalidState: true, DirtyProtocol: true, Resolution: core.HolderWins}
	specs = append(specs, runSpec{"holderwins-kmeans", "kmeans", cfg})

	return specs
}

func runFresh(t *testing.T, s runSpec) *stats.Run {
	t.Helper()
	w, err := workloads.New(s.workload, workloads.ScaleTiny)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	m, err := sim.NewMachine(s.cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	r, err := m.Execute(w)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return r
}

func runReused(t *testing.T, m *sim.Machine, s runSpec) *stats.Run {
	t.Helper()
	w, err := workloads.New(s.workload, workloads.ScaleTiny)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if err := m.Reset(s.cfg); err != nil {
		t.Fatalf("%s: reset: %v", s.name, err)
	}
	r, err := m.Execute(w)
	if err != nil {
		t.Fatalf("%s: reused execute: %v", s.name, err)
	}
	return r
}

// TestMachineReuseIsClean runs the whole spec gauntlet twice — once on
// fresh machines, once on ONE machine reset between runs in every
// cross-configuration order the slice gives — and demands bit-identical
// Run records. Any state leaking across a reset (cache residue, stale
// speculative bits, rng drift, a surviving watchdog boost) shows up as a
// stats mismatch.
func TestMachineReuseIsClean(t *testing.T) {
	specs := reuseSpecs()
	fresh := make([]*stats.Run, len(specs))
	for i, s := range specs {
		fresh[i] = runFresh(t, s)
	}

	m, err := sim.NewMachine(specs[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.New(specs[0].workload, workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(w); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		got := runReused(t, m, s)
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s: reused-machine run diverged from fresh machine\nreused: %+v\nfresh:  %+v",
				s.name, got, fresh[i])
		}
	}
	// And back-to-back reuse of the same spec stays stable.
	again := runReused(t, m, specs[0])
	if !reflect.DeepEqual(again, fresh[0]) {
		t.Errorf("second reuse of %s diverged from fresh run", specs[0].name)
	}
}

// TestMachinePoolMatchesFresh routes the gauntlet through a MachinePool
// and checks results against fresh machines — the pool must be invisible.
func TestMachinePoolMatchesFresh(t *testing.T) {
	var pool sim.MachinePool
	for _, s := range reuseSpecs() {
		fresh := runFresh(t, s)
		w, err := workloads.New(s.workload, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pool.Get(s.cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got, err := m.Execute(w)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		pool.Put(m)
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: pooled run diverged from fresh machine", s.name)
		}
	}
}

// TestMachinePoolConcurrent shares one pool between goroutines, each
// running the gauntlet in its own order: every pooled run must still match
// its fresh-machine result, and the pool never holds more than
// GOMAXPROCS machines.
func TestMachinePoolConcurrent(t *testing.T) {
	specs := reuseSpecs()
	fresh := make([]*stats.Run, len(specs))
	for i, s := range specs {
		fresh[i] = runFresh(t, s)
	}
	var pool sim.MachinePool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range specs {
				i := (k + g) % len(specs)
				w, err := workloads.New(specs[i].workload, workloads.ScaleTiny)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := pool.Get(specs[i].cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := m.Execute(w)
				pool.Put(m)
				if err != nil {
					t.Errorf("%s: %v", specs[i].name, err)
				} else if !reflect.DeepEqual(got, fresh[i]) {
					t.Errorf("%s: pooled run on goroutine %d diverged from fresh machine", specs[i].name, g)
				}
			}
		}(g)
	}
	wg.Wait()
	if n, max := pool.Len(), runtime.GOMAXPROCS(0); n > max {
		t.Errorf("pool holds %d machines, more than GOMAXPROCS %d", n, max)
	}
}

// TestResetRejectsStructuralChanges: core count, hierarchy and geometry
// are frozen at construction.
func TestResetRejectsStructuralChanges(t *testing.T) {
	m, err := sim.NewMachine(baseCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := baseCfg(1)
	bad.Cores = 8
	if err := m.Reset(bad); err == nil {
		t.Error("reset accepted a core-count change")
	}
	bad = baseCfg(1)
	bad.Hier.L1.SizeBytes *= 2
	if err := m.Reset(bad); err == nil {
		t.Error("reset accepted a hierarchy change")
	}
}

// settledGoroutines waits briefly for exiting goroutines to disappear
// from runtime.NumGoroutine and returns the count once it is back to want
// or below (goroutines of earlier tests may still be exiting), or the last
// count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// cancelMidRun wraps a workload so that thread 3 closes the run's cancel
// channel after 500 cycles of its own work, while the others are mid-run.
type cancelMidRun struct {
	sim.Workload
	cancel chan struct{}
}

func (w cancelMidRun) Run(t *sim.Thread) {
	if t.ID() == 3 {
		t.Work(500)
		close(w.cancel)
	}
	w.Workload.Run(t)
}

// TestErroredRunsAreReusable: a run stopped by the MaxCycles watchdog or
// by cancellation mid-flight unwinds every worker goroutine before Execute
// returns, and the machine it leaves behind resets to exactly a fresh
// machine.
func TestErroredRunsAreReusable(t *testing.T) {
	cfg := baseCfg(1)
	spec := runSpec{"baseline-kmeans", "kmeans", cfg}
	fresh := runFresh(t, spec)

	stopped := map[string]func() (sim.Config, sim.Workload){
		"maxcycles": func() (sim.Config, sim.Workload) {
			c := cfg
			c.MaxCycles = 2000 // far too few for kmeans to finish
			w, err := workloads.New("kmeans", workloads.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			return c, w
		},
		"canceled": func() (sim.Config, sim.Workload) {
			c := cfg
			cancel := make(chan struct{})
			c.Cancel = cancel
			w, err := workloads.New("kmeans", workloads.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			return c, cancelMidRun{w, cancel}
		},
	}
	for name, setup := range stopped {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c, w := setup()
			m, err := sim.NewMachine(c)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Execute(w)
			if err == nil {
				t.Fatal("expected the run to stop with an error")
			}
			if name == "canceled" && !errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("expected ErrCanceled, got %v", err)
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("%d goroutines before the run, %d after", before, n)
			}
			if got := runReused(t, m, spec); !reflect.DeepEqual(got, fresh) {
				t.Errorf("run on the reset machine diverged from a fresh machine")
			}
		})
	}
}

// panicOnThree is a workload whose thread 3 panics while the others are
// parked mid-run.
type panicOnThree struct{}

func (panicOnThree) Name() string                { return "panic-on-three" }
func (panicOnThree) Description() string         { return "thread 3 panics mid-run" }
func (panicOnThree) Setup(*sim.Machine)          {}
func (panicOnThree) Validate(*sim.Machine) error { return nil }
func (panicOnThree) Run(t *sim.Thread) {
	for i := 0; i < 50; i++ {
		t.Work(10)
		if t.ID() == 3 && i == 20 {
			panic("boom")
		}
	}
}

// TestThreadPanicSurfacesOnCaller: a workload panic is re-raised on the
// Execute caller's goroutine, where it can be recovered, and no worker
// goroutine outlives it.
func TestThreadPanicSurfacesOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := sim.NewMachine(baseCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	var got any
	func() {
		defer func() { got = recover() }()
		m.Execute(panicOnThree{})
	}()
	msg, _ := got.(string)
	if !strings.HasPrefix(msg, "sim: thread 3 panicked: boom") {
		t.Fatalf("recovered %#v, want a sim: thread 3 panicked: boom message", got)
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines before the run, %d after", before, n)
	}
}
