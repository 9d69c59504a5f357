package check

import (
	"strings"
	"testing"
	"time"
)

// TestFlowScopeSharesTrialTally pins that a violation raised in a per-flow
// scope counts toward the trial: the root's Finalize total and the
// Recorder both see it, stamped with the trial's clock and the flow name.
func TestFlowScopeSharesTrialTally(t *testing.T) {
	rec := NewRecorder()
	c := New(42, 7, rec)
	c.SetClock(func() time.Duration { return 3 * time.Second })
	decoy := c.Flow("10.0.0.9:40001>10.0.1.9:443")
	decoy.TCPRegister("client", 0)
	decoy.TCPRewind("client", 10, 20) // forward rewind: always a violation

	if n := c.Finalize(); n != 1 {
		t.Fatalf("root Finalize = %d, want the scope's 1 violation", n)
	}
	if rec.Total() != 1 || rec.Trials() != 1 {
		t.Fatalf("recorder total=%d trials=%d, want 1 and 1", rec.Total(), rec.Trials())
	}
	v, _ := rec.First()
	if v.Flow != "10.0.0.9:40001>10.0.1.9:443" || v.TrialSeed != 42 || v.TrialIndex != 7 || v.At != 3*time.Second {
		t.Fatalf("violation context = %+v", v)
	}
	if !strings.Contains(v.String(), "flow 10.0.0.9:40001>10.0.1.9:443") {
		t.Fatalf("violation string does not name the flow: %s", v)
	}
	if got := decoy.Total(); got != 1 {
		t.Fatalf("scope Total = %d, want the shared tally 1", got)
	}
}

// TestFlowScopesDoNotCollide registers the same endpoint names in two
// scopes of one trial. Each scope's TCP, HTTP/2, HPACK and capture shadows
// must stay separate; sharing any of them would fire a rule below.
func TestFlowScopesDoNotCollide(t *testing.T) {
	c := New(1, 0, nil)
	d := c.Flow("decoy")
	for _, s := range []*Checker{c, d} {
		s.TCPRegister("client", 0)
		s.TCPRegister("server", 0)
		s.TCPPeers("client", "server")
		s.H2Register("client", true, 65535)
		s.H2Register("server", false, 65535)
	}
	d.TCPRegister("client", 5000) // re-registering in d must not reset c's shadow

	// Fresh sends from both scopes' clients: a shared shadow would see c's
	// [0,100) as a re-send below d's 5100 mark.
	d.TCPSegment("client", 5000, 5100, false)
	c.TCPSegment("client", 0, 100, false)
	c.TCPDeliver("server", 100)

	// d opens stream 1; c never did, so c's DATA on it must still be idle.
	d.H2FrameSent("client", frameHeaders, 1, 10, 0, 0)
	d.H2FrameSent("client", frameData, 1, 10, 0, 0)
	wantRules(t, c)
	c.H2FrameSent("client", frameData, 1, 10, 0, 0)
	wantRules(t, c, "h2/data-on-idle-stream")

	// HPACK: d's encoder queue is d's; c's decoder has nothing to match.
	d.HpackEncoded("client", 120)
	c.HpackDecoded("server", 80)
	d.HpackDecoded("server", 120)

	// Capture: both scopes append their own contiguous streams.
	c.CaptureAppend(DirS2C, 10, 10, 10, 1010)
	d.CaptureAppend(DirS2C, 10, 10, 10, 9010)
	c.CaptureAppend(DirS2C, 10, 20, 20, 1020)
	d.CaptureAppend(DirS2C, 10, 20, 20, 9020)
	wantRules(t, c, "h2/data-on-idle-stream")
}

// TestFlowScopesShareLinkEpilogue pins that per-flow link bookings land in
// the trial's one link and bottleneck shadow, so the aggregate
// conservation epilogue settles the sum of every scope's flows exactly as
// it did when every flow booked into one checker.
func TestFlowScopesShareLinkEpilogue(t *testing.T) {
	book := func(s *Checker, size int) {
		s.LinkOffered(DirC2S, size)
		s.AggForwarded(DirC2S, size)
		s.LinkForwarded(DirC2S, size, false)
		s.LinkDelivered(DirC2S, size)
	}
	c := New(1, 0, nil)
	d := c.Flow("decoy")
	book(c, 100)
	book(d, 200)
	c.LinkStatsFinal(DirC2S, 2, 2, 0, 0, 0, 0, 0, 300)
	c.AggStatsFinal(DirC2S, 2, 300, 0)
	if n := c.Finalize(); n != 0 {
		t.Fatalf("balanced two-flow books finalized with %d violations: %v", n, rules(c))
	}

	// The epilogue still catches a drift in the summed stats, and a scope's
	// packet left without a fate fails the trial-end conservation check.
	c2 := New(1, 0, nil)
	d2 := c2.Flow("decoy")
	book(c2, 100)
	book(d2, 200)
	d2.LinkOffered(DirC2S, 50)
	c2.AggStatsFinal(DirC2S, 2, 299, 0)
	c2.Finalize()
	wantRules(t, c2, "netsim/agg-stats-drift", "netsim/link-conservation")
}
