//go:build go1.23

package sim

import "iter"

// startCoroutine creates the thread's coroutine, suspended before main.
//
// iter.Pull needs Go 1.23. The module's go line stays at 1.22 because the
// benchmark module (bench/go.mod) declares go 1.22 and may not depend on a
// module with a newer one, so this file alone carries the requirement.
func (t *Thread) startCoroutine() {
	t.coNext, t.coStop = iter.Pull(t.main)
}
