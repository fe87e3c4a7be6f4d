package core

// HoldsState reports whether the engine keeps per-line state (speculative
// bits, dirty marks or retained-invalid state) for line index idx.
func (e *Engine) HoldsState(idx int) bool { return e.at(idx) != nil }
