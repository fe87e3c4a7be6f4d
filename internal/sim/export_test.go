package sim

// Len reports how many machines the pool holds.
func (p *MachinePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
