package sim

import (
	"runtime"
	"slices"
	"sync"
)

// MachinePool recycles fully built machines across runs. A machine's
// construction cost (cache way arrays, dense line tables, engines, thread
// scratch) dominates short cells, so harness sweeps and service workers
// Get/Put machines instead of calling NewMachine per cell.
//
// Get resets a pooled machine under the requested configuration when one
// is available and structurally compatible (same cores, hierarchy and
// geometry — Reset's contract), and falls back to NewMachine otherwise.
// Because Reset rewinds a machine to the bit-identical fresh state, runs
// through the pool produce exactly the results of runs on new machines.
//
// The pool is a plain free list of at most runtime.GOMAXPROCS(0) machines
// (no more can run at once). Unlike a sync.Pool it survives garbage
// collection, so a long sweep keeps reusing the same few machines instead
// of rebuilding their arenas after every GC cycle.
type MachinePool struct {
	mu   sync.Mutex
	free []*Machine // most recently returned last
}

// Get returns a machine configured per cfg: a recycled one when possible,
// a fresh one otherwise.
func (p *MachinePool) Get(cfg Config) (*Machine, error) {
	m, _, err := p.GetTracked(cfg)
	return m, err
}

// GetTracked is Get plus how the machine was acquired: reused is true
// when a pooled machine was reset (the cheap path), false when one had
// to be built from scratch. The observability layer uses it to
// attribute acquisition time to "machine.reset" vs "machine.build".
func (p *MachinePool) GetTracked(cfg Config) (m *Machine, reused bool, err error) {
	norm := cfg
	if err := normalizeConfig(&norm); err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if p.free[i].checkReset(norm) == nil {
			m = p.free[i]
			p.free = slices.Delete(p.free, i, i+1)
			break
		}
	}
	p.mu.Unlock()
	if m != nil {
		if err := m.Reset(cfg); err != nil {
			return nil, false, err
		}
		return m, true, nil
	}
	m, err = NewMachine(cfg)
	return m, false, err
}

// Put offers a machine back for reuse. When the pool is full the least
// recently returned machine is dropped.
func (p *MachinePool) Put(m *Machine) {
	if m == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := runtime.GOMAXPROCS(0); len(p.free) >= n {
		p.free = slices.Delete(p.free, 0, len(p.free)-n+1)
	}
	p.free = append(p.free, m)
}

// DefaultPool is the process-wide machine pool used by the top-level run
// helpers.
var DefaultPool MachinePool
