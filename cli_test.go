package asfsim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one of the repository's commands into dir and returns
// the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String()
}

// runBinExpectUsageError runs the binary expecting a flag-validation
// failure: exit code 2 and a diagnostic on stderr.
func runBinExpectUsageError(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v: succeeded, expected rejection\nstdout: %s", filepath.Base(bin), args, stdout.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("%s %v: exit code %d, want 2\nstderr: %s", filepath.Base(bin), args, code, stderr.String())
	}
	if stderr.Len() == 0 {
		t.Fatalf("%s %v: rejected with no diagnostic on stderr", filepath.Base(bin), args)
	}
	return stderr.String()
}

// TestCLIEndToEnd exercises every command the repository ships, with small
// inputs: the layer no unit test reaches.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()

	t.Run("asfsim", func(t *testing.T) {
		bin := buildCmd(t, dir, "asfsim")

		list := runBin(t, bin, "-list")
		for _, wl := range []string{"vacation", "kmeans", "bayes", "yada"} {
			if !strings.Contains(list, wl) {
				t.Errorf("-list lacks %s", wl)
			}
		}

		out := runBin(t, bin, "-workload", "scalparc", "-scale", "tiny", "-detect", "subblock-4")
		for _, want := range []string{"scalparc", "subblock", "conflicts", "tx footprint"} {
			if !strings.Contains(out, want) {
				t.Errorf("run output lacks %q:\n%s", want, out)
			}
		}

		var rec map[string]any
		if err := json.Unmarshal([]byte(runBin(t, bin, "-workload", "kmeans", "-scale", "tiny", "-json")), &rec); err != nil {
			t.Fatalf("-json output not JSON: %v", err)
		}
		if rec["Workload"] != "kmeans" {
			t.Errorf("json Workload = %v", rec["Workload"])
		}

		// Record then replay.
		trace := filepath.Join(dir, "k.trace")
		runBin(t, bin, "-workload", "kmeans", "-scale", "tiny", "-record", trace)
		if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
			t.Fatalf("trace file missing/empty: %v", err)
		}
		rp := runBin(t, bin, "-replay", trace, "-detect", "perfect")
		if !strings.Contains(rp, "false 0") && !strings.Contains(rp, "false    0") {
			// Format-agnostic: parse the rate instead.
			if !strings.Contains(rp, "rate 0.0%") {
				t.Errorf("perfect replay shows false conflicts:\n%s", rp)
			}
		}

		// Robustness flags: a faulted run with a non-default policy and a
		// watchdog window reports its extra sections.
		out = runBin(t, bin, "-workload", "scalparc", "-scale", "tiny",
			"-fault-tlb-rate", "0.01", "-fault-interrupt-rate", "1e-4", "-fault-capacity-rate", "0.05",
			"-retry-policy", "adaptive", "-watchdog-window", "50000", "-watchdog-mitigate")
		for _, want := range []string{"robustness", "policy adaptive", "spurious", "watchdog", "starvation index"} {
			if !strings.Contains(out, want) {
				t.Errorf("faulted run output lacks %q:\n%s", want, out)
			}
		}
		var rob map[string]any
		if err := json.Unmarshal([]byte(runBin(t, bin, "-workload", "scalparc", "-scale", "tiny",
			"-fault-tlb-rate", "0.02", "-json")), &rob); err != nil {
			t.Fatalf("faulted -json output not JSON: %v", err)
		}
		if sp, _ := rob["SpuriousAborts"].(float64); sp == 0 {
			t.Errorf("faulted run at a 2%% TLB rate reported zero spurious aborts")
		}

		// Invalid robustness flag values are rejected with exit code 2.
		for _, bad := range [][]string{
			{"-workload", "scalparc", "-fault-tlb-rate", "-0.1"},
			{"-workload", "scalparc", "-fault-interrupt-rate", "1.5"},
			{"-workload", "scalparc", "-fault-capacity-rate", "NaN"},
			{"-workload", "scalparc", "-retry-policy", "psychic"},
			{"-workload", "scalparc", "-watchdog-window", "-1"},
			{"-workload", "scalparc", "-watchdog-mitigate"},
		} {
			runBinExpectUsageError(t, bin, bad...)
		}
	})

	t.Run("asfd", func(t *testing.T) {
		bin := buildCmd(t, dir, "asfd")
		// The journal holds the cache: a snapshot path beside it would go
		// unused, so the pair is refused before anything starts.
		runBinExpectUsageError(t, bin, "-addr", "127.0.0.1:0",
			"-journal", filepath.Join(dir, "j.wal"), "-cache-snapshot", filepath.Join(dir, "c.snap"))
	})

	t.Run("paperfigs", func(t *testing.T) {
		bin := buildCmd(t, dir, "paperfigs")
		if out := runBin(t, bin, "-table", "2"); !strings.Contains(out, "64KB") {
			t.Errorf("-table 2 output:\n%s", out)
		}
		if out := runBin(t, bin, "-overhead"); !strings.Contains(out, "1.17%") {
			t.Errorf("-overhead output:\n%s", out)
		}
		out := runBin(t, bin, "-fig", "1", "-scale", "tiny", "-seeds", "1", "-workloads", "ssca2")
		if !strings.Contains(out, "ssca2") || !strings.Contains(out, "AVERAGE") {
			t.Errorf("-fig 1 output:\n%s", out)
		}
		// The excluded benchmarks are runnable through the harness too.
		out = runBin(t, bin, "-fig", "1", "-scale", "tiny", "-seeds", "1", "-workloads", "yada")
		if !strings.Contains(out, "yada") {
			t.Errorf("extras not runnable through paperfigs:\n%s", out)
		}
		var fd map[string]any
		if err := json.Unmarshal([]byte(runBin(t, bin, "-json", "-scale", "tiny", "-seeds", "1", "-workloads", "kmeans")), &fd); err != nil {
			t.Fatalf("-json not JSON: %v", err)
		}
	})

	t.Run("asftrace", func(t *testing.T) {
		bin := buildCmd(t, dir, "asftrace")
		out := runBin(t, bin, "-fig", "5", "-scale", "tiny", "-workloads", "kmeans")
		if !strings.Contains(out, "granularity: 4 bytes") {
			t.Errorf("kmeans Fig 5 lost its 4-byte stride:\n%s", out)
		}
	})

	t.Run("asfadvise", func(t *testing.T) {
		bin := buildCmd(t, dir, "asfadvise")
		out := runBin(t, bin, "-workload", "kmeans", "-scale", "tiny")
		for _, want := range []string{"false-sharing diagnosis", "granularity", "hardware fix"} {
			if !strings.Contains(out, want) {
				t.Errorf("advisor output lacks %q:\n%s", want, out)
			}
		}
	})
}
