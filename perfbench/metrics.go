package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricSpec is one reported metric, exactly as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of the timed run (--trace 0). broken_pct and
// failed_pct are reported as their complements, loads_intact_pct and
// trials_ok_pct, because both are 0 on every workload and a zero median
// has no relative spread. Memory is the median live heap: peak RSS and
// peak live heap both varied by more than a tenth between runs.
var endToEnd = []metricSpec{
	{"trials_per_s", "1/s", "higher"},
	{"allocs_per_trial", "count", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"target_success_pct", "%", "higher"},
	{"loads_intact_pct", "%", "higher"},
	{"trials_ok_pct", "%", "higher"},
}

// perLayer are the metrics of the traced run (--trace 1). METRICS.md gives
// each one's source, and the end-to-end metric and workload it should
// move.
var perLayer = []metricSpec{
	{"simtime.events_per_trial", "count", "lower"},
	{"simtime.queue_depth_mean", "count", "lower"},
	{"simtime.ns_per_event", "ns", "lower"},
	{"simtime.ns_per_fork", "ns", "lower"},
	{"netsim.packets_per_trial", "count", "lower"},
	{"netsim.drops_per_trial", "count", "lower"},
	{"netsim.ns_per_packet", "ns", "lower"},
	{"tcpsim.segments_per_trial", "count", "lower"},
	{"tcpsim.retransmit_ratio", "ratio", "lower"},
	{"tcpsim.rto_expiries_per_trial", "count", "lower"},
	{"tcpsim.ns_per_segment", "ns", "lower"},
	{"tlsrec.records_per_trial", "count", "lower"},
	{"tlsrec.ns_per_record", "ns", "lower"},
	{"h2.frames_per_trial", "count", "lower"},
	{"h2.ns_per_frame", "ns", "lower"},
	{"hpack.ns_per_block", "ns", "lower"},
	{"endpoint.gets_per_trial", "count", "lower"},
	{"endpoint.app_retry_ratio", "ratio", "lower"},
	{"endpoint.resets_per_trial", "count", "lower"},
	{"website.ns_per_body_byte", "ns", "lower"},
	{"capture.packets_per_trial", "count", "lower"},
	{"capture.ns_per_packet", "ns", "lower"},
	{"predict.bursts_per_trial", "count", "lower"},
	{"predict.ns_per_record", "ns", "lower"},
	{"adversary.interventions_per_trial", "count", "lower"},
	{"adversary.attempts_per_trial", "count", "lower"},
	{"adversary.success_per_attempt", "ratio", "higher"},
	{"adversary.target_selected_pct", "%", "higher"},
	{"core.build_ms", "ms", "lower"},
	{"core.run_ms", "ms", "lower"},
	{"core.capture_ms", "ms", "lower"},
	{"core.build_allocs", "count", "lower"},
	{"core.run_allocs", "count", "lower"},
	{"core.capture_allocs", "count", "lower"},
	{"core.run_unattributed_pct", "%", "lower"},
	{"experiment.queue_wait_ms_per_trial", "ms", "lower"},
	{"experiment.worker_busy_pct", "%", "higher"},
	{"runtime.gc_cpu_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the result line, taking exactly the metrics in specs
// from values. A spec without a finite value is a bug in the benchmark.
func resultLine(correct bool, attempted, failed int, specs []metricSpec, values map[string]float64) (string, error) {
	if len(values) != len(specs) {
		return "", fmt.Errorf("perfbench: computed %d metrics, declared %d", len(values), len(specs))
	}
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return "", fmt.Errorf("perfbench: metric %s was not computed", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("perfbench: metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	b, err := json.Marshal(r)
	return string(b), err
}
