package core

import (
	"fmt"

	"h2privacy/internal/simtime"
)

// ChaosMode deterministically sabotages a trial (TrialConfig.Chaos) so
// the sweep supervision layer — panic and stall isolation, quarantine —
// can be exercised on demand instead of waiting for a real bug. Chaos is
// injected at fixed, seed-independent points so a quarantined trial's
// repro command replays the exact same failure standalone.
type ChaosMode uint8

const (
	// ChaosNone is the inert default.
	ChaosNone ChaosMode = iota
	// ChaosPanic panics as the trial's run starts, after the testbed is
	// assembled — the "bad code path" failure class.
	ChaosPanic
	// ChaosHang schedules a self-rescheduling zero-delay loop: virtual
	// time stops advancing — the "wedged simulation" failure class. The
	// scheduler's stall rule converts it into a loud *simtime.StallError
	// at the same event on every run.
	ChaosHang
)

// String names the mode as the -chaos flag spells it.
func (m ChaosMode) String() string {
	switch m {
	case ChaosNone:
		return "none"
	case ChaosPanic:
		return "panic"
	case ChaosHang:
		return "hang"
	}
	return fmt.Sprintf("ChaosMode(%d)", uint8(m))
}

// ParseChaosMode resolves a -chaos mode name.
func ParseChaosMode(s string) (ChaosMode, error) {
	switch s {
	case "", "none":
		return ChaosNone, nil
	case "panic":
		return ChaosPanic, nil
	case "hang":
		return ChaosHang, nil
	}
	return ChaosNone, fmt.Errorf("core: unknown chaos mode %q (want panic or hang)", s)
}

// chaosPanicValue is what a ChaosPanic trial panics with; the supervisor
// reports it verbatim so quarantine records are self-describing.
func chaosPanicValue(seed int64) string {
	return fmt.Sprintf("core: chaos-injected panic (seed %d)", seed)
}

// armChaosHang installs the self-rescheduling zero-delay loop on the
// trial's scheduler. It consumes no RNG draws; the extra events make the
// trial diverge, but a chaos trial is sacrificial by definition.
func armChaosHang(sched *simtime.Scheduler) {
	var spin func()
	spin = func() { sched.After(0, spin) }
	sched.At(0, spin)
}

// QuarantinedResult builds the placeholder TrialResult the sweep engine
// slots in for a trial that failed permanently and was quarantined: it
// keeps index-aligned aggregation loops total, reads as a broken load to
// every report (nil maps degrade to zero/false lookups), and is skipped
// by the metrics publisher — the sweep_* supervision families account for
// it instead. The structured failure detail lives in the quarantine
// record, not here.
func QuarantinedResult(seed int64, reason string) *TrialResult {
	return &TrialResult{
		Quarantined:  true,
		Broken:       true,
		BrokenReason: fmt.Sprintf("quarantined (seed %d): %s", seed, reason),
	}
}
