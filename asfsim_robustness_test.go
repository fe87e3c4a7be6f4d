package asfsim_test

import (
	"bytes"
	"testing"

	asfsim "repro"
)

// TestExactlyOnceUnderFaultsAcrossDetections is the cross-detection
// invariant sweep: every paper workload, every detection system, with
// fault injection live. Whatever the detection mode drops or aborts, the
// runtime's completion guarantee must hold — each launched atomic block
// completes exactly once (the in-machine oracle.Ledger enforces the same
// contract from the inside; this checks the aggregated counters from the
// outside). For workloads that never user-abort, the committed-block
// count must also agree across ALL detection systems: detection changes
// performance, never semantics.
func TestExactlyOnceUnderFaultsAcrossDetections(t *testing.T) {
	workloadNames := asfsim.Workloads()
	detections := asfsim.AllDetections
	if testing.Short() {
		workloadNames = workloadNames[:3]
		detections = []asfsim.Detection{
			asfsim.DetectBaseline, asfsim.DetectSubBlock4, asfsim.DetectPerfect,
		}
	}
	for _, wl := range workloadNames {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			type outcome struct {
				launched, committed, userAborted uint64
			}
			results := make(map[asfsim.Detection]outcome, len(detections))
			for _, d := range detections {
				cfg := asfsim.DefaultConfig()
				cfg.Detection = d
				cfg.Fault = asfsim.FaultConfig{
					InterruptRate:     5e-5,
					TLBRate:           0.002,
					CapacityNoiseRate: 0.01,
				}
				cfg.Watchdog.Window = 200_000
				r, err := asfsim.Run(wl, asfsim.ScaleSmall, cfg)
				if err != nil {
					t.Fatalf("%v: %v", d, err)
				}
				if done := r.BlocksCommitted + r.BlocksUserAborted; done != r.TxLaunched {
					t.Errorf("%v: %d blocks launched but %d completed", d, r.TxLaunched, done)
				}
				var byKind uint64
				for _, n := range r.SpuriousBy {
					byKind += n
				}
				if byKind != r.SpuriousAborts {
					t.Errorf("%v: SpuriousBy sums to %d, SpuriousAborts %d", d, byKind, r.SpuriousAborts)
				}
				results[d] = outcome{r.TxLaunched, r.BlocksCommitted, r.BlocksUserAborted}
			}
			// Commit-count equality across detections holds only when no run
			// user-aborted: a user abort re-enters program-level retry loops,
			// so block counts legitimately diverge with timing.
			for _, o := range results {
				if o.userAborted > 0 {
					return
				}
			}
			first := results[detections[0]]
			for d, o := range results {
				if o != first {
					t.Errorf("no-user-abort workload diverged across detections: %v=%+v, %v=%+v",
						detections[0], first, d, o)
				}
			}
		})
	}
}

// TestFaultyRecordedRunReplaysDeterministically records a faulted run's op
// trace, then replays it twice under fault injection with event logging:
// the two replays must produce byte-identical event logs that do contain
// spurious-abort events. This is the full record → replay → event-log
// round trip of the new event kinds.
func TestFaultyRecordedRunReplaysDeterministically(t *testing.T) {
	faults := asfsim.FaultConfig{InterruptRate: 1e-4, TLBRate: 0.01, CapacityNoiseRate: 0.05}

	var trace bytes.Buffer
	recCfg := asfsim.DefaultConfig()
	recCfg.Fault = faults
	recCfg.RecordTrace = &trace
	if _, err := asfsim.Run("vacation", asfsim.ScaleTiny, recCfg); err != nil {
		t.Fatalf("recording faulted run: %v", err)
	}
	traceBytes := trace.Bytes()

	replay := func() (*asfsim.Result, []byte) {
		var events bytes.Buffer
		cfg := asfsim.DefaultConfig()
		cfg.Detection = asfsim.DetectSubBlock4
		cfg.Fault = faults
		cfg.Watchdog.Window = 100_000
		cfg.EventLog = &events
		r, err := asfsim.RunReplay(bytes.NewReader(traceBytes), cfg)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return r, events.Bytes()
	}
	r1, log1 := replay()
	_, log2 := replay()
	if !bytes.Equal(log1, log2) {
		t.Fatal("same trace, same seed: replay event logs differ")
	}
	if r1.SpuriousAborts == 0 {
		t.Fatal("faulted replay delivered no spurious aborts; determinism check vacuous")
	}
	evs, err := asfsim.DecodeEvents(bytes.NewReader(log1))
	if err != nil {
		t.Fatal(err)
	}
	s := asfsim.SummarizeEvents(evs)
	if uint64(s.Spurious) != r1.SpuriousAborts {
		t.Fatalf("event log has %d spurious events, replay counted %d", s.Spurious, r1.SpuriousAborts)
	}
}
