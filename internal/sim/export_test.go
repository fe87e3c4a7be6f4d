package sim

// Len reports how many machines the pool holds.
func (p *MachinePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Drain retires every pooled machine's coroutines and empties the pool.
func (p *MachinePool) Drain() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, m := range free {
		m.retire()
	}
}

// Coroutines reports how many of the machine's threads hold a live
// coroutine.
func (m *Machine) Coroutines() int {
	n := 0
	for _, t := range m.threads {
		if t.coStop != nil {
			n++
		}
	}
	return n
}

// SetSnoopFilter turns the snoop filter of every machine built or reset
// afterwards on or off.
func SetSnoopFilter(on bool) { snoopFilter = on }
