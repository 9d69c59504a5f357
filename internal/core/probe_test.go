package core

import (
	"reflect"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/h2"
	"h2privacy/internal/obs"
	"h2privacy/internal/probe"
	"h2privacy/internal/simtime"
	"h2privacy/internal/trace"
)

// TestProbesNeverPerturbTrial runs representative trial shapes twice —
// bare, then with every probe armed at once (trace, invariant checks,
// flow features, metrics) — and requires identical results. Only the two
// fields that exist to report the probes may differ.
func TestProbesNeverPerturbTrial(t *testing.T) {
	attack := adversary.DefaultPlan()
	adaptive := adversary.DefaultPlan()
	adaptive.Adaptive = true
	for _, tc := range []struct {
		name string
		cfg  TrialConfig
	}{
		{"attack", TrialConfig{Seed: 11, Attack: &attack}},
		{"mbox-restart", TrialConfig{Seed: 8, Attack: &adaptive, Scenario: "mbox-restart"}},
		{"cross-traffic", TrialConfig{Seed: 3, Attack: &attack, CrossTrafficBps: 50e6}},
		{"fleet-100", TrialConfig{Seed: 4242, Attack: &adaptive, Fleet: &FleetConfig{N: 100, Budget: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := RunTrial(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := check.NewRecorder()
			armed := tc.cfg
			armed.Trace = trace.New(nil, trace.Config{})
			armed.Check = check.New(tc.cfg.Seed, 0, rec)
			armed.Flows = flowseq.New(0, flowseq.NewCollector())
			armed.Metrics = obs.NewRegistry()
			got, err := RunTrial(armed)
			if err != nil {
				t.Fatal(err)
			}
			if got.CheckViolations != 0 {
				t.Errorf("%d violations:\n%s", got.CheckViolations, rec.Report())
			}
			if got.Features == nil || armed.Trace.Len() == 0 {
				t.Fatal("armed run produced no features or no trace events")
			}
			got.Features, got.CheckViolations = nil, 0
			if !reflect.DeepEqual(bare, got) {
				t.Errorf("arming probes changed the result: bare outcome=%v armed outcome=%v", bare.Outcome, got.Outcome)
			}
		})
	}
}

// TestDecoyLayersChecked builds one fleet decoy, runs its page load and
// then probes the decoy's check scope with a rule only an armed layer can
// break: a TCP endpoint that registered its sequence shadow flags a
// forward rewind, an HTTP/2 endpoint that registered flags DATA on a
// stream it never opened, and a monitor that reassembled bytes flags a
// discontinuous append. A layer built unchecked registers nothing, so
// its probe stays silent.
func TestDecoyLayersChecked(t *testing.T) {
	sched := simtime.NewScheduler()
	ck := check.New(1, 0, nil)
	ck.SetClock(sched.Now)
	target := probe.Set{Check: ck, Flows: flowseq.New(0, nil)}
	d, err := buildDecoy(sched, TrialConfig{Seed: 1}, DefaultLink(), 1, 0, target)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(10 * time.Second)
	if d.browser.Result().Broken || len(d.browser.Result().Completed) == 0 {
		t.Fatalf("decoy page load did not complete: %+v", d.browser.Result())
	}
	scope := d.probes.Check
	if scope == nil || scope == ck {
		t.Fatal("decoy has no check scope of its own")
	}
	for _, p := range []struct {
		layer string
		poke  func()
		rule  string
	}{
		{"tcp client", func() { scope.TCPRewind("client", 0, 1) }, "tcpsim/rewind-forward"},
		{"tcp server", func() { scope.TCPRewind("server", 0, 1) }, "tcpsim/rewind-forward"},
		{"h2 client", func() { scope.H2FrameSent("client", uint8(h2.FrameData), 1<<30, 1, 0, 0) }, "h2/data-on-idle-stream"},
		{"h2 server", func() { scope.H2FrameSent("server", uint8(h2.FrameData), 1<<30, 1, 0, 0) }, "h2/data-on-idle-stream"},
		{"capture c2s", func() { scope.CaptureAppend(check.DirC2S, 1, 1, 1, 0) }, "capture/stream-discontinuity"},
		{"capture s2c", func() { scope.CaptureAppend(check.DirS2C, 1, 1, 1, 0) }, "capture/stream-discontinuity"},
	} {
		before := ck.Total()
		p.poke()
		vs := ck.Violations()
		if ck.Total() != before+1 {
			t.Errorf("decoy %s is unchecked: probing it raised no violation", p.layer)
			continue
		}
		if v := vs[len(vs)-1]; v.Layer+"/"+v.Rule != p.rule || v.Flow != d.id {
			t.Errorf("decoy %s: got %s/%s on flow %q, want %s on %q", p.layer, v.Layer, v.Rule, v.Flow, p.rule, d.id)
		}
	}
	if n := ck.Total(); n != 6 {
		t.Errorf("page load plus probes raised %d violations, want exactly the 6 probes:\n%v", n, ck.Violations())
	}
}
