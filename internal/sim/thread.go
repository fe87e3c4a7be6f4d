package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/retry"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Thread is one simulated worker (pinned to the core with the same id).
// Workload code runs on a thread and interacts with the machine only
// through the Thread/Tx API; every such call advances the thread's
// simulated time and yields, which is what produces the deterministic
// timestamp-ordered interleaving.
type Thread struct {
	id     int
	m      *Machine
	eng    *core.Engine
	rng    *rng.Rand
	policy retry.Policy
	fault  *fault.Injector // nil unless fault injection is enabled

	// policyRand and faultRand are the persistent backing stores for the
	// retry policy's and fault injector's rng streams, reseeded in place at
	// each Execute so a reused thread draws exactly a fresh thread's
	// sequence without reallocating the generators.
	policyRand *rng.Rand
	faultRand  *rng.Rand

	// tx is the thread's reusable transaction handle: one attempt runs at
	// a time per thread, so Atomic and runFallback rewind this buffer
	// instead of allocating a Tx (and its write/read/op slices) per attempt.
	tx Tx

	wake     int64 // earliest time this thread may run again
	resume   chan struct{}
	finished bool

	// Cycle attribution bucket for step(): 0 = non-transactional,
	// 1 = inside a transaction attempt, 2 = abort/backoff stall.
	bucket     int
	bucketTime [3]int64

	// noRecord suppresses trace recording during runtime-internal ops
	// (lock spinning, fallback plumbing) so a recorded trace contains
	// only the workload's own operations.
	noRecord bool

	// Per-thread runtime statistics.
	launched  uint64 // atomic blocks entered
	retries   uint64 // extra attempts beyond the first
	maxRetry  int
	fallbacks uint64 // atomic blocks completed under the serial lock
	valChecks uint64 // commit-time value validations (ModeWAROnly)

	// Robustness bookkeeping.
	blocksCommitted   uint64 // blocks completed by commit (speculative or fallback)
	blocksUserAborted uint64 // blocks completed by a user abort
	fallbacksEarly    uint64 // fallbacks demanded by the policy before the hard cap
	spuriousBy        [fault.NumKinds]uint64
	faultMark         int64 // simulated time of the last fault poll this attempt
	lastProgress      int64 // simulated time the last block completed (watchdog)
	starveAlerted     bool  // starvation alert raised for the current episode
}

// blocksDone returns the atomic blocks this thread has completed, by
// either outcome.
func (t *Thread) blocksDone() uint64 { return t.blocksCommitted + t.blocksUserAborted }

// resetForRun rewinds the thread's per-run state for another Execute on a
// reset machine. The identity fields (id, m, eng), the rng backing stores
// and the resume channel survive; the rng streams themselves are reseeded
// by Execute.
func (t *Thread) resetForRun() {
	t.finished = false
	t.bucket = bucketNonTx
	t.bucketTime = [3]int64{}
	t.noRecord = false
	t.launched, t.retries, t.fallbacks, t.valChecks = 0, 0, 0, 0
	t.maxRetry = 0
	t.blocksCommitted, t.blocksUserAborted, t.fallbacksEarly = 0, 0, 0
	t.spuriousBy = [fault.NumKinds]uint64{}
	t.faultMark = 0
	t.starveAlerted = false
	t.tx.rewind(false)
}

// beginTx rewinds the reusable Tx handle for a new attempt.
func (t *Thread) beginTx(irrevocable bool) *Tx {
	t.tx.rewind(irrevocable)
	return &t.tx
}

// ID returns the thread (== core) id.
func (t *Thread) ID() int { return t.id }

// Rand returns the thread's private deterministic random stream.
func (t *Thread) Rand() *rng.Rand { return t.rng }

// Machine returns the machine the thread runs on.
func (t *Thread) Machine() *Machine { return t.m }

// Now returns the thread's current simulated time.
func (t *Thread) Now() int64 { return t.wake }

// stopRun is the panic value that unwinds a thread when its run stops
// early. Thread.main recovers it; attempt and runFallback re-panic it like
// any other value that is not a txAbort.
type stopRun struct{}

// main is the goroutine body: wait to be scheduled, run the workload, then
// hand control to the next thread (or report the end of the run). A
// workload panic stops the run and is re-raised by Execute.
func (t *Thread) main(body func(*Thread)) {
	m := t.m
	var pval any
	func() {
		defer func() { pval = recover() }()
		t.park()
		body(t)
	}()
	if _, ok := pval.(stopRun); ok {
		m.done <- struct{}{}
		return
	}
	t.finished = true
	if pval != nil {
		m.stopping = true
		m.panicked = fmt.Sprintf("sim: thread %d panicked: %v", t.id, pval)
		m.done <- struct{}{}
		return
	}
	next, err := m.schedule()
	switch {
	case err != nil:
		m.stop(err)
		m.done <- struct{}{}
	case next == nil: // the last thread finished
		m.done <- struct{}{}
	default:
		next.resume <- struct{}{}
	}
}

// yield ends the thread's current op: it picks the next thread itself and,
// unless that is this thread again, hands control to it directly and sleeps
// until resumed.
func (t *Thread) yield() {
	m := t.m
	if m.stopping {
		// Only a deferred call of workload code, running while this thread
		// unwinds a stopped run, gets here.
		panic(stopRun{})
	}
	next, err := m.schedule()
	if next == t {
		return
	}
	if err != nil {
		m.stop(err)
		t.finished = true
		panic(stopRun{})
	}
	next.resume <- struct{}{}
	t.park()
}

// park blocks until the thread is resumed, and unwinds it if the run
// stopped meanwhile.
func (t *Thread) park() {
	<-t.resume
	if t.m.stopping {
		panic(stopRun{})
	}
}

// step charges lat cycles (attributed to the current bucket) and yields.
func (t *Thread) step(lat int64) {
	if lat < 1 {
		lat = 1
	}
	t.bucketTime[t.bucket] += lat
	t.wake += lat
	t.yield()
}

// Work models non-memory computation taking the given number of cycles.
func (t *Thread) Work(cycles int64) {
	if cycles > 0 {
		t.recordOp(trace.Op{Kind: "work", Cycles: cycles})
		t.step(cycles)
	}
}

// recordOp appends a workload-level op to the trace recorder, if any.
func (t *Thread) recordOp(op trace.Op) {
	if t.m.recorder == nil || t.noRecord {
		return
	}
	op.Thread = t.id
	t.m.recorder.Write(op)
}

// ---------------------------------------------------------------------------
// Non-transactional accesses
// ---------------------------------------------------------------------------

// Load performs a non-transactional load of a size-byte little-endian
// value (size in {1,2,4,8}).
func (t *Thread) Load(a mem.Addr, size int) uint64 {
	t.recordOp(trace.Op{Kind: "nload", Addr: uint64(a), Size: size})
	r := t.eng.Load(a, size, false)
	v := t.m.memory.LoadUint(a, size)
	t.m.magicCheck(t.id, a, size, false)
	t.step(r.Latency)
	return v
}

// Store performs a non-transactional store. It participates in coherence
// normally, so it aborts remote transactions whose speculative state it
// truly hits.
func (t *Thread) Store(a mem.Addr, size int, v uint64) {
	t.recordOp(trace.Op{Kind: "nstore", Addr: uint64(a), Size: size, Val: v})
	r := t.eng.Store(a, size, false)
	t.m.memory.StoreUint(a, size, v)
	t.m.magicCheck(t.id, a, size, true)
	t.step(r.Latency)
}

// CAS is an atomic compare-and-swap executed as a single simulated
// operation (the LOCK CMPXCHG analogue). Returns whether the swap
// happened. CAS operations are not captured by trace recording (no
// paper workload uses them; the runtime's own CAS is internal).
func (t *Thread) CAS(a mem.Addr, size int, old, new uint64) bool {
	r := t.eng.Load(a, size, false)
	lat := r.Latency
	cur := t.m.memory.LoadUint(a, size)
	ok := cur == old
	if ok {
		rs := t.eng.Store(a, size, false)
		t.m.memory.StoreUint(a, size, new)
		t.m.magicCheck(t.id, a, size, true)
		lat += rs.Latency
	}
	t.step(lat)
	return ok
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// txAbort is the panic value used to unwind an aborted attempt.
type txAbort struct {
	user bool // raised by Tx.Abort rather than the engine
}

// Atomic executes body as one transaction. Machine aborts (conflict,
// capacity, spurious fault, quash) retry under the configured retry
// policy (default: §V-A exponential backoff); when the policy demands a
// fallback — at the hard MaxRetries cap, or earlier for adaptive policies
// — the body runs under a global serial lock (ASF is best-effort, so the
// software library must provide a completion guarantee) — acquiring the
// lock quashes all in-flight transactions, and no transaction starts while
// the lock is held.
//
// A user abort (Tx.Abort inside body) does NOT retry: Atomic returns
// false, handing the decision back to the program, which is how STAMP's
// labyrinth-style validate-and-recompute loops are written. Atomic returns
// true when the body committed.
//
// body may run many times, so it must be idempotent up to its Tx
// operations: reset any captured locals at entry, and apply their effects
// only after Atomic returns true.
func (t *Thread) Atomic(body func(tx *Tx)) bool {
	t.launched++
	t.m.ledger.Launch(t.id)
	retries := 0
	for {
		if fb, early := t.policy.Fallback(retries); fb {
			if early {
				t.fallbacksEarly++
			}
			t.bucket = bucketTx
			ok := t.runFallback(body)
			t.bucket = bucketNonTx
			t.policy.NoteFallback()
			t.m.run.RetryChains.Add(retries + 1)
			t.noteBlockDone(ok)
			return ok
		}
		t.waitBoost()
		t.waitLockFree()
		t.bucket = bucketTx
		t.eng.BeginTx()
		t.m.noteTxStart(t.id)
		t.fault.BeginAttempt()
		t.faultMark = t.wake
		// Subscribe to the serial-fallback lock: the transactional read
		// both (a) closes the race where the lock is taken between
		// waitLockFree and BeginTx — the value read is then non-zero and
		// the attempt cancels — and (b) keeps the lock line in the read
		// set so no transaction can run inside another thread's critical
		// section unnoticed.
		sub := t.eng.Load(t.m.lockAddr, 8, true)
		lockHeld := t.m.memory.LoadUint(t.m.lockAddr, 8) != 0
		t.step(sub.Latency)
		if lockHeld {
			if ab, _ := t.eng.AbortPending(); !ab {
				t.eng.Abort(core.ReasonLock)
			}
			t.eng.CommitTx()
			t.bucket = bucketNonTx
			continue
		}
		tx := t.beginTx(false)
		fpLines := 0
		committed, userAbort := t.attempt(tx, body, &fpLines)
		if committed {
			t.bucket = bucketNonTx
			t.policy.NoteCommit()
			t.m.run.RetryChains.Add(retries + 1)
			t.m.run.FootprintLines.Add(fpLines)
			t.noteBlockDone(true)
			return true
		}
		if userAbort {
			t.bucket = bucketNonTx
			tx.flushTrace(false)
			// A user abort is a voluntary completion, not contention: the
			// policy treats it like a commit.
			t.policy.NoteCommit()
			t.m.run.RetryChains.Add(retries + 1)
			t.noteBlockDone(false)
			return false
		}
		retries++
		t.retries++
		if retries > t.maxRetry {
			t.maxRetry = retries
		}
		t.policy.NoteAbort()
		t.bucket = bucketBackoff
		t.step(t.m.cfg.AbortCycles + t.policy.Delay(retries))
		t.bucket = bucketNonTx
	}
}

// noteBlockDone records an atomic-block completion (commit or user abort)
// for the per-thread counters and the watchdog's progress tracking.
func (t *Thread) noteBlockDone(committed bool) {
	t.m.ledger.Complete(t.id, committed)
	if committed {
		t.blocksCommitted++
	} else {
		t.blocksUserAborted++
	}
	t.m.noteProgress(t)
}

// waitBoost defers a new transaction attempt while the watchdog has
// boosted a starving thread (and it is not this one). The stall is
// bounded by the boost window.
func (t *Thread) waitBoost() {
	for {
		until, mustDefer := t.m.boostFor(t.id)
		if !mustDefer || t.wake >= until {
			return
		}
		t.bucket = bucketBackoff
		t.step(until - t.wake)
		t.bucket = bucketNonTx
	}
}

// Cycle-attribution buckets.
const (
	bucketNonTx = iota
	bucketTx
	bucketBackoff
)

// attempt runs one transactional execution of body. On commit, *fpLines
// receives the transaction's footprint in distinct cache lines (the
// capacity metric of the paper's yada/hmm exclusion).
func (t *Thread) attempt(tx *Tx, body func(tx *Tx), fpLines *int) (committed, userAbort bool) {
	aborted := func() (aborted bool) {
		defer func() {
			if r := recover(); r != nil {
				ta, ok := r.(txAbort)
				if !ok {
					panic(r) // real bug in workload code: propagate
				}
				userAbort = ta.user
				aborted = true
			}
		}()
		body(tx)
		return false
	}()

	// WAR-only comparator: before committing, value-validate every read
	// from a line whose invalidation was speculated through. The check and
	// the commit happen with no intervening yield, so they are atomic in
	// simulated time.
	if !aborted && t.m.cfg.Core.Mode == core.ModeWAROnly && t.eng.HasUnsafe() {
		if ab, _ := t.eng.AbortPending(); !ab {
			t.valChecks++
			if !tx.validateReads(t.eng.IsUnsafe) {
				t.eng.Abort(core.ReasonValidation)
			}
		}
	}

	if !aborted {
		*fpLines = t.eng.Footprint().LineCount()
	}
	ok, _ := t.eng.CommitTx()
	if aborted || !ok {
		// A conflict abort that arrived during an explicit Tx.Abort
		// unwinding still counts as a user abort for control flow.
		return false, userAbort
	}
	tx.applyWrites(t.m.memory)
	tx.flushTrace(true)
	t.m.logTxCommit(t.id)
	t.step(t.m.cfg.CommitCycles)
	return true, false
}

// waitLockFree spins (with polling delay) until the serial fallback lock
// is free. Checking is a plain coherent load; the lock word lives in its
// own cache line.
func (t *Thread) waitLockFree() {
	t.noRecord = true
	for t.Load(t.m.lockAddr, 8) != 0 {
		t.Work(int64(100 + t.rng.Intn(100)))
	}
	t.noRecord = false
}

// runFallback executes body under the global serial lock with direct
// (non-speculative) accesses. Acquisition force-aborts every in-flight
// transaction (belt) while the per-transaction lock subscription in Atomic
// (braces) guarantees no transaction that missed the quash can commit
// inside the critical section; waitLockFree keeps new transactions out
// until release. Returns false iff the body user-aborted under the lock.
func (t *Thread) runFallback(body func(tx *Tx)) bool {
	for {
		// Acquire: CAS 0->1; the acquisition and the quashing of running
		// transactions happen within one simulated op, so no transaction
		// can slip in between.
		r := t.eng.Load(t.m.lockAddr, 8, false)
		lat := r.Latency
		if t.m.memory.LoadUint(t.m.lockAddr, 8) == 0 {
			// Quash all in-flight transactions FIRST, then write the lock
			// word — both inside this one simulated op. Ordering matters:
			// quashing first (reason "lock") keeps the lock write's
			// probes from being double-counted as data conflicts.
			for _, e := range t.m.engines {
				if e.ID() != t.id {
					e.ForceAbort(core.ReasonLock)
				}
			}
			rs := t.eng.Store(t.m.lockAddr, 8, false)
			t.m.memory.StoreUint(t.m.lockAddr, 8, 1)
			lat += rs.Latency
			t.step(lat)
			break
		}
		t.step(lat)
		t.Work(int64(100 + t.rng.Intn(100)))
	}
	t.fallbacks++
	t.m.logFallback(t.id)

	// A user abort under the lock discards the buffered writes and hands
	// control back to the program (same contract as the speculative path).
	tx := t.beginTx(true)
	userAborted := func() (ua bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(txAbort); !ok {
					panic(r)
				}
				tx.writes = tx.writes[:0]
				ua = true
			}
		}()
		body(tx)
		tx.applyWrites(t.m.memory)
		return false
	}()
	tx.flushTrace(!userAborted)

	// Release.
	t.noRecord = true
	t.Store(t.m.lockAddr, 8, 0)
	t.noRecord = false
	return !userAborted
}

// pollFault delivers any injected environmental fault due at this point
// of the running speculative attempt. The cycles elapsed since the
// previous poll feed the per-cycle interrupt hazard; access marks memory
// operations for the TLB hazard. No-op (one nil compare) when fault
// injection is off.
func (t *Thread) pollFault(access bool) {
	if t.fault == nil {
		return
	}
	elapsed := t.wake - t.faultMark
	t.faultMark = t.wake
	k, hit := t.fault.OnOp(elapsed, access)
	if !hit {
		return
	}
	t.spuriousBy[k]++
	t.m.logSpurious(t.id, k)
	t.eng.Abort(core.ReasonSpurious)
	panic(txAbort{})
}

// checkAbort panics with txAbort when the engine has aborted the running
// attempt; called by every Tx operation.
func (t *Thread) checkAbort() {
	if ab, _ := t.eng.AbortPending(); ab {
		panic(txAbort{})
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread %d @%d", t.id, t.wake)
}
