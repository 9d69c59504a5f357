// Package probe carries one flow's instrumentation hooks as a single
// value. A Set enters a flow once, at netsim.PathConfig, and every
// component reads it from the object it is built on: the links and fault
// injector from their path, the TCP pair and adversary controller from the
// path, the endpoints from their TCP connection, each endpoint's HTTP/2
// connection from its endpoint, and the attack driver from its controller.
// The capture monitor keeps its no-argument constructor and is armed with
// one Monitor.SetProbes call.
//
// Every hook in a Set is optional and nil-safe: the zero Set is the
// uninstrumented flow and costs one pointer comparison per hook site.
package probe

import (
	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/obs"
	"h2privacy/internal/trace"
)

// Set is one flow's probes.
type Set struct {
	// Trace receives per-layer events, counters and histograms.
	Trace *trace.Tracer
	// Check shadows protocol state and records invariant violations. In a
	// fleet trial each flow holds its own scope of the trial's checker
	// (check.Checker.Flow).
	Check *check.Checker
	// Flows is the flow's event-sequence analyzer, fed by the monitor's
	// record stream and by exactly one HTTP/2 endpoint's frames.
	Flows *flowseq.Analyzer
	// Metrics receives live adversary and fault-injection counters.
	Metrics *obs.Registry
}
