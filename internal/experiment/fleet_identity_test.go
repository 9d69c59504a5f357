package experiment

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/website"
)

// fleetSweepFingerprint runs a checked, feature-armed, chaos-sabotaged
// N=100 fleet sweep at the given worker count and serializes every
// byte-identity-relevant artifact: per-trial outcome lines (fleet
// selection, interventions, decoy fates), the deferred-published metrics
// registry, the /debug/flows CSV (WriteFlows is exactly what the endpoint
// serves), the stripped manifest, the quarantine file and the checker
// report. The golden contract: all of it is byte-identical at any worker
// count, with pools and checkers armed.
func fleetSweepFingerprint(t *testing.T, workers int) []byte {
	t.Helper()
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	fcol := flowseq.NewCollector()
	reg := obs.NewRegistry()
	fcol.PublishTo(reg)
	rec := check.NewRecorder()
	q := NewQuarantine()
	q.SetRepro(func(f TrialFailure) string {
		return fmt.Sprintf("h2attack -seed %d -fleet 100 -budget 1", f.Seed)
	})
	opts := Options{
		Trials: 3, BaseSeed: 4242, Workers: workers,
		Metrics: reg, Features: fcol, Check: rec,
		PoolPoison:   true,
		Quarantine:   q,
		SuperviseLog: io.Discard,
		ChaosTrial: func(flat int) core.ChaosMode {
			if flat == 1 {
				return core.ChaosPanic
			}
			return core.ChaosNone
		},
	}
	results, err := opts.Sweep(opts.Trials, func(tr int) core.TrialConfig {
		return core.TrialConfig{
			Seed:   seedFor(opts.BaseSeed, 0, opts.Trials, tr),
			Attack: &plan,
			Fleet:  &core.FleetConfig{N: 100, Budget: 1},
		}
	})
	if err != nil {
		t.Fatalf("fleet sweep errored (workers=%d): %v", workers, err)
	}

	var buf bytes.Buffer
	for i, res := range results {
		if res.Quarantined {
			fmt.Fprintf(&buf, "trial %d: quarantined\n", i)
			continue
		}
		fmt.Fprintf(&buf, "trial %d: outcome=%v html=%v resets=%d", i,
			res.Outcome, res.ObjectSuccess(website.TargetID), res.Resets)
		if fo := res.Fleet; fo != nil {
			var dLoad, dResets, dBroken int
			for _, d := range fo.Decoys {
				dLoad += int(d.LoadTime)
				dResets += d.Resets
				if d.Broken {
					dBroken++
				}
			}
			fmt.Fprintf(&buf, " selected=%v peak=%d interventions=%d aggS2C=%d/%d decoys=%d loadSum=%d resets=%d broken=%d",
				fo.Selected, fo.BudgetPeak, fo.Interventions,
				fo.AggS2C.Forwarded, fo.AggS2C.Bytes,
				len(fo.Decoys), dLoad, dResets, dBroken)
		}
		fmt.Fprintln(&buf)
	}
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fcol.WriteFlows(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("test", opts)
	m.Finish(reg)
	m.FinishQuarantine(q)
	m.StripWallClock()
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := q.WriteJSON(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(rec.Report())
	return buf.Bytes()
}

// TestFleetSweepByteIdenticalAcrossWorkers is the fleet tentpole's golden
// test: a 1-worker and a 4-worker run of the same checked N=100 fleet
// sweep — chaos-quarantined trial included — must produce byte-identical
// reports, registry snapshots, /debug/flows CSVs, stripped manifests and
// quarantine files.
func TestFleetSweepByteIdenticalAcrossWorkers(t *testing.T) {
	seq := fleetSweepFingerprint(t, 1)
	par := fleetSweepFingerprint(t, 4)
	if len(seq) == 0 {
		t.Fatal("empty fingerprint")
	}
	if !bytes.Equal(seq, par) {
		d := diffAt(seq, par)
		t.Fatalf("fleet sweep differs across worker counts near byte %d:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			d, excerpt(seq, d), excerpt(par, d))
	}
}

// TestFleetSweepCheckClean asserts the checked fleet sweep above violated
// nothing: per-flow conservation, aggregate conservation at the
// bottleneck, the budget shadow — all green across 100-flow trials.
func TestFleetSweepCheckClean(t *testing.T) {
	plan := adversary.DefaultPlan()
	plan.Adaptive = true
	rec := check.NewRecorder()
	opts := Options{Trials: 2, BaseSeed: 777, Workers: 4, Check: rec}
	_, err := opts.Sweep(opts.Trials, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr), Attack: &plan,
			Fleet: &core.FleetConfig{N: 100, Budget: 2}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Total(); n != 0 {
		t.Fatalf("fleet trials violated %d invariants:\n%s", n, rec.Report())
	}
}

// diffAt returns the first index where a and b differ.
func diffAt(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// excerpt returns a short window of buf around offset for diff messages.
func excerpt(buf []byte, at int) string {
	lo, hi := at-120, at+120
	if lo < 0 {
		lo = 0
	}
	if hi > len(buf) {
		hi = len(buf)
	}
	return string(buf[lo:hi])
}
