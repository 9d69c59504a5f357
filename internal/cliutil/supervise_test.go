package cliutil

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
)

func TestParseChaosSpec(t *testing.T) {
	if hook, err := ParseChaosSpec(""); hook != nil || err != nil {
		t.Fatalf("empty spec: hook non-nil=%v err=%v, want nil/nil", hook != nil, err)
	}
	hook, err := ParseChaosSpec("panic:3, hang:11")
	if err != nil {
		t.Fatal(err)
	}
	for flat, want := range map[int]core.ChaosMode{
		0: core.ChaosNone, 3: core.ChaosPanic, 11: core.ChaosHang, 12: core.ChaosNone,
	} {
		if got := hook(flat); got != want {
			t.Fatalf("hook(%d) = %v, want %v", flat, got, want)
		}
	}
	for _, bad := range []string{"panic", "hang:x", "bogus:1", "panic:-1"} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestSuperviseFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var sf SuperviseFlags
	sf.RegisterSupervise(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sf.Chaos != "" || sf.Strict || sf.QuarantineOut != "" {
		t.Fatalf("defaults = %+v", sf)
	}
	if err := fs.Parse([]string{"-chaos", "hang:0", "-strict", "-quarantine-out", "q.json"}); err != nil {
		t.Fatal(err)
	}
	if sf.Chaos != "hang:0" || !sf.Strict || sf.QuarantineOut != "q.json" {
		t.Fatalf("parsed = %+v", sf)
	}
}

// TestDefaultSupervisionKeepsBusyTrial pins that a trial which is busy
// but never wedged survives default supervision: flat index 50 of
// crosstraffic (the first 300 Mbps trial) was once quarantined by a
// 5M-event step budget, when its generator ran to the 40 s cap (7.5M
// events). Stopping at idle, it fires 3.6M events over ~20 s.
func TestDefaultSupervisionKeepsBusyTrial(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var sf SuperviseFlags
	sf.RegisterSupervise(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts := experiment.Options{BaseSeed: 1, Workers: 1, SuperviseLog: io.Discard}
	q, err := sf.Apply(&opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := adversary.DefaultPlan()
	results, err := opts.Sweep(1, func(int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + 50, Attack: &plan, CrossTrafficBps: 300e6}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := results[0]; res.Quarantined || q.Len() != 0 || res.Broken {
		t.Fatalf("quarantined=%v (%d failures), broken=%v (%s), want a clean trial",
			res.Quarantined, q.Len(), res.Broken, res.BrokenReason)
	}
}

// TestSuperviseApplyDegradedRun drives the flag group end to end: Apply
// arms a real sweep, an injected panic quarantines one trial, Report
// prints the degraded summary with its repro line and writes the
// quarantine artifact, and Exit enforces -strict.
func TestSuperviseApplyDegradedRun(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quarantine.json")
	sf := SuperviseFlags{Chaos: "panic:0", QuarantineOut: qpath}
	opts := experiment.Options{BaseSeed: 11, Workers: 1, SuperviseLog: io.Discard}
	q, err := sf.Apply(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Quarantine != q || opts.ChaosTrial == nil {
		t.Fatalf("Apply left opts unarmed: %+v", opts)
	}
	q.SetRepro(func(f experiment.TrialFailure) string { return "replay-me" })
	results, err := opts.Sweep(2, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr)}
	})
	if err != nil {
		t.Fatalf("degraded sweep errored: %v", err)
	}
	if !results[0].Quarantined || results[1].Quarantined {
		t.Fatalf("results = %v / %v, want trial 0 quarantined only", results[0], results[1])
	}
	var log bytes.Buffer
	n, err := sf.Report(q, &log, "test")
	if err != nil || n != 1 {
		t.Fatalf("Report = (%d, %v), want (1, nil)", n, err)
	}
	out := log.String()
	for _, want := range []string{"DEGRADED", "trial 0 (seed 11) [panic]", "repro: replay-me"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version": 2`, `"kind": "panic"`, "replay-me"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("quarantine file lacks %q:\n%s", want, raw)
		}
	}
	if sf.Exit(n) != 0 {
		t.Fatal("degraded completion exited non-zero without -strict")
	}
	sf.Strict = true
	if sf.Exit(n) != 1 {
		t.Fatal("-strict tolerated a quarantined trial")
	}
	if sf.Exit(0) != 0 {
		t.Fatal("-strict failed a clean sweep")
	}
}

// TestSuperviseReportWritesEmptyArtifact: -quarantine-out is written even
// with zero failures, so CI can assert on the file unconditionally.
func TestSuperviseReportWritesEmptyArtifact(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quarantine.json")
	sf := SuperviseFlags{QuarantineOut: qpath}
	n, err := sf.Report(experiment.NewQuarantine(), nil, "test")
	if err != nil || n != 0 {
		t.Fatalf("Report = (%d, %v)", n, err)
	}
	raw, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"failures": []`) {
		t.Fatalf("empty artifact malformed:\n%s", raw)
	}
}
