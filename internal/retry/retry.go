// Package retry generalizes the §V-A exponential backoff of
// internal/backoff into pluggable retry/fallback policies for the
// best-effort HTM runtime.
//
// A policy owns two decisions that the runtime (Thread.Atomic in
// internal/sim) consults after every failed transaction attempt:
//
//  1. how long to back off before the next attempt (Delay), and
//  2. whether to stop retrying speculatively and demote the block to the
//     serial-lock fallback (Fallback).
//
// The paper only ever needed decision 1 plus a hard MaxRetries cap for
// decision 2, because its simulator never delivers environmental aborts
// and its backoff tames requester-wins livelock well enough on the
// evaluated kernels. Under fault injection (internal/fault) and
// adversarial workloads, the policy surface matters: Dice et al. ("The
// Influence of Malloc Placement on TSX Hardware Transactional Memory")
// observe that retry/fallback policy dominates best-effort HTM behaviour
// in practice, and the lemming effect — one fallback acquisition quashing
// every running transaction, whose retries then collide and fall back in
// turn — is the canonical failure. AdaptiveSerialize exists to break
// exactly that cascade by demoting early, before the abort storm wastes
// MaxRetries attempts per thread.
//
// Determinism: a policy draws randomness only from the *rng.Rand it is
// given (one fork per simulated thread). Exponential reproduces the
// pre-existing backoff.Manager stream bit-for-bit, so selecting it (the
// default) leaves every pre-existing run unchanged.
package retry

import (
	"fmt"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// Kind selects a retry policy. The zero value is Exponential, the
// paper's §V-A behaviour.
type Kind int

const (
	// Exponential doubles the backoff per retry with jitter
	// (backoff.Manager) and falls back only at the MaxRetries cap.
	Exponential Kind = iota
	// Immediate retries with no backoff (delay 0); the classic
	// requester-wins livelock generator, kept for experiments and the
	// watchdog's demonstration tests.
	Immediate
	// Linear grows the backoff linearly (base*retries, capped, jittered).
	Linear
	// AdaptiveSerialize behaves like Exponential but tracks consecutive
	// aborts and a decayed abort rate, demoting the thread to the serial
	// fallback early when contention looks pathological.
	AdaptiveSerialize
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case Exponential:
		return "exponential"
	case Immediate:
		return "immediate"
	case Linear:
		return "linear"
	case AdaptiveSerialize:
		return "adaptive"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists every policy kind in ordinal order.
var Kinds = []Kind{Exponential, Immediate, Linear, AdaptiveSerialize}

// ParseKind resolves a policy name (as accepted by the -retry-policy CLI
// flag). "adaptive-serialize" is accepted as an alias for "adaptive".
func ParseKind(s string) (Kind, error) {
	switch s {
	case "exponential":
		return Exponential, nil
	case "immediate":
		return Immediate, nil
	case "linear":
		return Linear, nil
	case "adaptive", "adaptive-serialize":
		return AdaptiveSerialize, nil
	}
	return 0, fmt.Errorf("retry: unknown policy %q (want exponential, immediate, linear or adaptive)", s)
}

// Config parameterizes a policy. The zero value means: Exponential with
// the runtime's MaxRetries and backoff curve (filled in by the simulator
// when left zero).
type Config struct {
	Kind Kind

	// MaxRetries is the hard cap of speculative attempts before the
	// serial fallback, for every policy (the best-effort completion
	// guarantee). 0 = take the simulator's configured cap.
	MaxRetries int

	// Backoff is the delay curve for Exponential, Linear and
	// AdaptiveSerialize. The simulator substitutes its own configured
	// curve when this is the zero value; standalone use passes it through
	// backoff.New's clamping unchanged.
	Backoff backoff.Config

	// AdaptiveSerialize knobs (ignored by other kinds; 0 = default).
	SerializeAfter    int     // consecutive aborts before early demotion (default 8)
	DemoteAbortRate   float64 // decayed abort-rate threshold for demotion (default 0.95)
	DemoteMinAttempts int     // attempts observed before the rate rule may fire (default 16)
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.Kind < 0 || c.Kind >= NumKinds {
		return fmt.Errorf("retry: unknown policy kind %d", int(c.Kind))
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("retry: MaxRetries %d negative", c.MaxRetries)
	}
	if c.SerializeAfter < 0 {
		return fmt.Errorf("retry: SerializeAfter %d negative", c.SerializeAfter)
	}
	if c.DemoteAbortRate < 0 || c.DemoteAbortRate > 1 {
		return fmt.Errorf("retry: DemoteAbortRate %v outside [0, 1]", c.DemoteAbortRate)
	}
	return nil
}

// Policy is consulted by the transaction runtime around every attempt of
// an atomic block. Implementations are per-thread and need no locking.
type Policy interface {
	// Name returns the policy's flag-level name.
	Name() string
	// Delay returns the backoff, in cycles, to stall before attempt
	// retries+1 (retries >= 1 failed attempts so far). It is charged
	// together with the abort penalty even when the next decision is a
	// fallback, mirroring real runtimes where the backoff has already
	// been taken by the time the retry loop re-evaluates.
	Delay(retries int) int64
	// Fallback reports whether the block should stop retrying
	// speculatively and run under the serial lock. early is set when the
	// demotion fires before the hard MaxRetries cap (adaptive demotion),
	// so the runtime can account the two separately.
	Fallback(retries int) (fallback, early bool)
	// NoteAbort informs the policy that an attempt was aborted by the
	// machine (conflict, capacity, spurious fault or quash — not a user
	// abort).
	NoteAbort()
	// NoteCommit informs the policy that the block completed voluntarily
	// (commit, or a program-level user abort): contention did not end it.
	NoteCommit()
	// NoteFallback informs the policy that the block ran under the
	// serial lock, letting adaptive state cool down.
	NoteFallback()
	// Reset rewinds the policy to the state New built it in, keeping its
	// configuration and rng, so one policy serves run after run of a
	// reused thread.
	Reset()
}

// New builds the configured policy drawing jitter from r. The Exponential
// policy with a given backoff.Config consumes exactly the same stream of
// draws as a bare backoff.Manager, preserving pre-policy runs bit-for-bit.
func New(cfg Config, r *rng.Rand) Policy {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 64
	}
	switch cfg.Kind {
	case Immediate:
		return &immediate{maxRetries: cfg.MaxRetries}
	case Linear:
		return &linear{maxRetries: cfg.MaxRetries, cfg: normalizeBackoff(cfg.Backoff), r: r}
	case AdaptiveSerialize:
		a := &adaptive{
			exponential: exponential{
				maxRetries: cfg.MaxRetries,
				bo:         backoff.New(cfg.Backoff, r),
			},
			serializeAfter: cfg.SerializeAfter,
			demoteRate:     cfg.DemoteAbortRate,
			minAttempts:    cfg.DemoteMinAttempts,
		}
		if a.serializeAfter <= 0 {
			a.serializeAfter = 8
		}
		if a.demoteRate <= 0 {
			a.demoteRate = 0.95
		}
		if a.minAttempts <= 0 {
			a.minAttempts = 16
		}
		return a
	default:
		return &exponential{maxRetries: cfg.MaxRetries, bo: backoff.New(cfg.Backoff, r)}
	}
}

// normalizeBackoff applies backoff.New's clamping rules to a raw config.
func normalizeBackoff(c backoff.Config) backoff.Config {
	if c.BaseCycles <= 0 {
		c.BaseCycles = 1
	}
	if c.MaxCycles < c.BaseCycles {
		c.MaxCycles = c.BaseCycles
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter > 1 {
		c.Jitter = 1
	}
	return c
}

// ---------------------------------------------------------------------------
// Exponential (the §V-A default)
// ---------------------------------------------------------------------------

type exponential struct {
	maxRetries int
	bo         *backoff.Manager
}

func (p *exponential) Name() string      { return "exponential" }
func (p *exponential) Delay(r int) int64 { return p.bo.Delay(r) }
func (p *exponential) NoteAbort()        {}
func (p *exponential) NoteCommit()       {}
func (p *exponential) NoteFallback()     {}
func (p *exponential) Reset()            {}
func (p *exponential) Fallback(r int) (bool, bool) {
	return r > p.maxRetries, false
}

// ---------------------------------------------------------------------------
// Immediate
// ---------------------------------------------------------------------------

type immediate struct {
	maxRetries int
}

func (p *immediate) Name() string    { return "immediate" }
func (p *immediate) Delay(int) int64 { return 0 }
func (p *immediate) NoteAbort()      {}
func (p *immediate) NoteCommit()     {}
func (p *immediate) NoteFallback()   {}
func (p *immediate) Reset()          {}
func (p *immediate) Fallback(r int) (bool, bool) {
	return r > p.maxRetries, false
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

type linear struct {
	maxRetries int
	cfg        backoff.Config
	r          *rng.Rand
}

func (p *linear) Name() string  { return "linear" }
func (p *linear) NoteAbort()    {}
func (p *linear) NoteCommit()   {}
func (p *linear) NoteFallback() {}
func (p *linear) Reset()        {}

func (p *linear) Delay(retries int) int64 {
	if retries <= 0 {
		return 0
	}
	d := p.cfg.BaseCycles * int64(retries)
	if d > p.cfg.MaxCycles || d/int64(retries) != p.cfg.BaseCycles {
		d = p.cfg.MaxCycles
	}
	if p.cfg.Jitter > 0 && p.r != nil {
		d -= int64(float64(d) * p.cfg.Jitter * p.r.Float64())
	}
	if d < 1 {
		d = 1
	}
	return d
}

func (p *linear) Fallback(r int) (bool, bool) {
	return r > p.maxRetries, false
}

// ---------------------------------------------------------------------------
// AdaptiveSerialize
// ---------------------------------------------------------------------------

// adaptive demotes to the serial fallback early on two signals: a run of
// SerializeAfter consecutive aborts (this thread is livelocked or
// lemming-cascading), or a decayed abort rate above DemoteAbortRate once
// at least DemoteMinAttempts attempts have been observed (this thread is
// in sustained pathological contention even if occasional commits sneak
// through). The decayed rate is an EWMA with weight 1/8 per attempt, so
// roughly the last two dozen attempts dominate.
type adaptive struct {
	exponential
	serializeAfter int
	demoteRate     float64
	minAttempts    int

	consecutive int
	attempts    int
	rate        float64
}

func (p *adaptive) Name() string { return "adaptive" }

func (p *adaptive) NoteAbort() {
	p.consecutive++
	p.attempts++
	p.rate += (1 - p.rate) / 8
}

func (p *adaptive) NoteCommit() {
	p.consecutive = 0
	p.attempts++
	p.rate -= p.rate / 8
}

func (p *adaptive) NoteFallback() {
	// The serial section completed the block; cool the signals so the
	// thread gets a fresh speculative chance instead of serializing
	// forever on stale history.
	p.consecutive = 0
	p.rate /= 2
}

func (p *adaptive) Reset() { p.consecutive, p.attempts, p.rate = 0, 0, 0 }

func (p *adaptive) Fallback(r int) (bool, bool) {
	if r > p.maxRetries {
		return true, false
	}
	if p.consecutive >= p.serializeAfter {
		return true, true
	}
	if p.attempts >= p.minAttempts && p.rate >= p.demoteRate {
		return true, true
	}
	return false, false
}
