package main

import (
	"fmt"
	"io"
	"time"

	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/h2"
	"h2privacy/internal/netsim"
	"h2privacy/internal/perf"
	"h2privacy/internal/simtime"
	"h2privacy/internal/website"
)

// probe is the benchmark's tap on a testbed path: each packet entering a
// link samples the scheduler's event-queue depth.
type probe struct {
	sched             *simtime.Scheduler
	depthSum, samples int64
}

func (p *probe) Observe(netsim.PacketEvent) {
	p.depthSum += int64(p.sched.Len())
	p.samples++
}

// counts are one or more trials' raw layer counters, by counter name.
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var directions = []netsim.Direction{netsim.ClientToServer, netsim.ServerToClient}

// testbedCounts reads a finished testbed's public stats getters.
func testbedCounts(tb *core.Testbed, p *probe) counts {
	c := counts{
		"events":   float64(tb.Sched.Steps()),
		"depth":    ratio(float64(p.depthSum), float64(p.samples)),
		"records":  float64(len(tb.Monitor.Records())),
		"selected": boolCount(tb.Driver != nil),
	}
	for _, d := range directions {
		st := tb.Path.Link(d).Stats()
		c["packets"] += float64(st.Sent)
		c["drops"] += float64(st.DroppedLoss + st.DroppedPolicy + st.DroppedQueue + st.DroppedFault)
		c["capture_packets"] += float64(tb.Monitor.Stats(d).Packets)
	}
	cl, sv := tb.Pair.Client.Stats(), tb.Pair.Server.Stats()
	c["segments"] = float64(cl.SegmentsSent + sv.SegmentsSent)
	c["retransmits"] = float64(cl.Retransmits() + sv.Retransmits())
	c["rto"] = float64(cl.RTOExpiries + sv.RTOExpiries)
	for _, st := range []h2.ConnStats{tb.Browser.H2Stats(), tb.Server.H2Stats()} {
		for _, n := range st.FramesSent {
			c["frames"] += float64(n)
		}
	}
	cs := tb.Controller.Stats()
	c["interventions"] = float64(cs.DroppedPkts + cs.DelayedGETs + cs.JitteredPkts + cs.ThrottleEvents)
	return c
}

// resultCounts reads the counters a TrialResult carries.
func resultCounts(res *core.TrialResult) counts {
	return counts{
		"gets":        float64(res.GETs),
		"app_retries": float64(res.AppRetries),
		"resets":      float64(res.Resets),
		"bursts":      float64(len(res.Bursts)),
		"attempts":    float64(res.AttackAttempts),
		"successes":   boolCount(res.ObjectSuccess(website.TargetID)),
	}
}

// fleetCounts reads the shared bottleneck's and the budgeted adversary's
// counters from a fleet trial's FleetOutcome.
func fleetCounts(f *core.FleetOutcome) counts {
	return counts{
		"packets":       float64(f.AggC2S.Forwarded + f.AggC2S.DroppedQueue + f.AggS2C.Forwarded + f.AggS2C.DroppedQueue),
		"drops":         float64(f.AggC2S.DroppedQueue + f.AggS2C.DroppedQueue),
		"interventions": float64(f.Interventions),
		"selected":      boolCount(f.TargetSelected),
	}
}

// kernelInputOf collects a finished testbed's inputs for the kernels.
func kernelInputOf(tb *core.Testbed, c counts) kernelInput {
	b, s := tb.Browser.H2Stats(), tb.Server.H2Stats()
	return kernelInput{
		events:    int(c["events"]),
		depth:     int(c["depth"] + 0.5),
		packets:   int(c["packets"]),
		tcpBytes:  [2]int64{tb.Pair.Client.Stats().BytesSent, tb.Pair.Server.Stats().BytesSent},
		records:   tb.Monitor.Records(),
		packetLog: tb.Monitor.Packets(),
		h2Sent:    [2]map[h2.FrameType]int{b.FramesSent, s.FramesSent},
		dataBytes: [2]int64{b.DataBytesSent, s.DataBytesSent},
		site:      tb.Site,
		plan:      tb.Plan,
	}
}

// tracedTrial builds one trial's testbed with core.NewTestbed, taps its
// path, runs it and reads its counters. withLog arms the monitor's packet
// log, which the capture kernel replays.
func tracedTrial(cfg core.TrialConfig, withLog bool) (*core.Testbed, *core.TrialResult, counts, error) {
	sp := cfg.Perf.Start(perf.StageBuild)
	tb, err := core.NewTestbed(cfg)
	sp.Stop()
	if err != nil {
		return nil, nil, nil, err
	}
	p := &probe{sched: tb.Sched}
	tb.Path.AddTap(p)
	if withLog {
		tb.Monitor.EnablePacketLog()
	}
	res := tb.Run()
	c := testbedCounts(tb, p)
	c.add(resultCounts(res))
	return tb, res, c, nil
}

// tracedPhase is the traced half of a traced run.
type tracedPhase struct {
	trials []trialRecord
	sum    counts    // summed over trials
	tps    []float64 // throughput of each round
	in     kernelInput
	// stages attributes build/run/capture; engine the pool's queue wait
	// and busy time.
	stages, engine *perf.Report
	// twinRunNS is the fleet twins' summed run-stage time (fleet only).
	twinRunNS float64
}

// traceTestbeds runs the workload's trials on benchmark-built testbeds,
// unpooled, over the engine's worker pool, for at least minDur.
func traceTestbeds(wl workload, p runParams, minDur time.Duration) (*tracedPhase, error) {
	engine, stages := perf.NewCollector(), perf.NewCollector()
	opts := experiment.Options{Workers: p.workers, Perf: engine}
	batch := wl.batchPerWorker * p.workers
	ph := &tracedPhase{sum: counts{}}
	start := time.Now()
	for len(ph.trials) == 0 || time.Since(start) < minDur {
		t0 := len(ph.trials)
		roundStart := time.Now()
		recs := make([]trialRecord, batch)
		cs := make([]counts, batch)
		err := opts.ForEachTrial(batch, func(i int) error {
			t := t0 + i
			cfg := wl.trial(trialSeed(p.seed, t))
			w := stages.Worker()
			defer w.Close()
			cfg.Perf = w
			tb, r, c, err := tracedTrial(cfg, t == 0)
			if err != nil {
				return fmt.Errorf("%s: traced trial %d: %w", wl.name, t, err)
			}
			recs[i], cs[i] = wl.record(cfg.Seed, r), c
			if t == 0 {
				ph.in = kernelInputOf(tb, c)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ph.tps = append(ph.tps, float64(batch)/time.Since(roundStart).Seconds())
		ph.trials = append(ph.trials, recs...)
		for _, c := range cs {
			ph.sum.add(c)
		}
	}
	ph.stages, ph.engine = stages.Report(), engine.Report()
	return ph, nil
}

// traceFleet runs fleet trials unpooled through Sweep for at least minDur.
// core builds the fleet's testbed internally, so the per-flow counters
// come from a twin: flow 0's standalone assembly (the target config with
// no fleet and no attack, as core's fleet path builds it) at the same
// seed, built with core.NewTestbed after the timed part.
func traceFleet(wl workload, p runParams, minDur time.Duration) (*tracedPhase, error) {
	engine := perf.NewCollector()
	opts := experiment.Options{Workers: p.workers, Perf: engine, NoPool: true}
	ph := &tracedPhase{sum: counts{}}
	var fleetC []counts
	r, err := rounds(opts, wl, p.seed, minDur, 1, func(_ int, res *core.TrialResult) {
		c := resultCounts(res)
		for k, v := range fleetCounts(res.Fleet) {
			c[k] = v
		}
		fleetC = append(fleetC, c)
	})
	if err != nil {
		return nil, err
	}
	rep := engine.Report()
	ph.trials, ph.tps, ph.stages, ph.engine = r.trials, r.tps, rep, rep
	twins := perf.NewCollector()
	for t := range ph.trials {
		w := twins.Worker()
		tb, _, c, err := tracedTrial(core.TrialConfig{Seed: trialSeed(p.seed, t), Perf: w}, t == 0)
		w.Close()
		if err != nil {
			return nil, fmt.Errorf("fleet twin %d: %w", t, err)
		}
		if t == 0 {
			ph.in = kernelInputOf(tb, c)
		}
		// The fleet's own counters replace the twin's where it has them.
		for k, v := range fleetC[t] {
			c[k] = v
		}
		ph.sum.add(c)
	}
	ph.in.packets = int(ph.sum["packets"] / float64(len(ph.trials)))
	ph.twinRunNS = stageNS(twins.Report(), perf.StageRun)
	return ph, nil
}

func stageNS(r *perf.Report, s perf.Stage) float64 {
	if st := r.StageByName(s.String()); st != nil {
		return st.TotalMS * 1e6
	}
	return 0
}

func stageAllocs(r *perf.Report, s perf.Stage) float64 {
	if st := r.StageByName(s.String()); st != nil {
		return float64(st.AllocObjects)
	}
	return 0
}

// runTraced measures the per-layer metrics. The run splits its time in
// three: a reference part identical to the timed run, a traced part over
// the same seeds, and the kernels. The traced part's results must equal
// the reference part's.
func runTraced(wl workload, p runParams, stdout io.Writer) (string, bool, error) {
	if _, err := setupOnce(wl, p.seed, p.workers, 0); err != nil {
		return "", false, err
	}
	part := p.seconds / 3

	ref := experiment.Options{Workers: p.workers}
	gc0, cpu0 := cpuSeconds()
	refR, err := rounds(ref, wl, p.seed, part, 1, nil)
	if err != nil {
		return "", false, err
	}
	refRes := refR.trials
	gc1, cpu1 := cpuSeconds()

	var ph *tracedPhase
	if wl.fleet {
		ph, err = traceFleet(wl, p, part)
	} else {
		ph, err = traceTestbeds(wl, p, part)
	}
	if err != nil {
		return "", false, err
	}
	k, err := runKernels(ph.in, part/10)
	if err != nil {
		return "", false, err
	}

	correct := true
	failed := 0
	for _, part := range []struct {
		name   string
		trials []trialRecord
	}{{"reference", refRes}, {"traced", ph.trials}} {
		for t, r := range part.trials {
			if r.problem != "" {
				failed++
				correct = false
				fmt.Fprintf(stdout, "perfbench FAIL %s trial %d (seed %d): %s\n", part.name, t, trialSeed(p.seed, t), r.problem)
			}
		}
	}
	if m := firstMismatch(refRes, ph.trials); m != "" {
		correct = false
		fmt.Fprintf(stdout, "perfbench FAIL reference (pooled) and traced (unpooled) results differ: %s\n", m)
	}
	n := len(refRes)
	if len(ph.trials) < n {
		n = len(ph.trials)
	}
	fmt.Fprintf(stdout, "perfbench reference trials=%d trials_per_s=%.4g digest=%s\n", len(refRes), refR.medianTPS(), digest(refRes[:n]))
	fmt.Fprintf(stdout, "perfbench traced trials=%d trials_per_s=%.4g digest=%s\n", len(ph.trials), median(ph.tps), digest(ph.trials[:n]))

	trials := float64(len(ph.trials))
	per := func(name string) float64 { return ph.sum[name] / trials }

	runNS := stageNS(ph.stages, perf.StageRun) / trials
	if wl.fleet {
		// The attributed counters are the twins', so compare with their run.
		runNS = ph.twinRunNS / trials
	}
	attributed := k.event*per("events") + k.record*per("records") + k.frame*per("frames") +
		k.block*float64(k.blocks) + k.bodyByte*float64(k.bodyBytes) + k.capturePacket*per("capture_packets")

	var busy, open float64
	for _, w := range ph.engine.Workers {
		busy += w.BusyMS
		open += w.BusyMS + w.IdleMS
	}
	queueWait := 0.0
	if st := ph.engine.StageByName(perf.StageQueueWait.String()); st != nil {
		queueWait = st.TotalMS
	}

	values := map[string]float64{
		"simtime.events_per_trial":           per("events"),
		"simtime.queue_depth_mean":           per("depth"),
		"simtime.ns_per_event":               k.event,
		"simtime.ns_per_fork":                k.fork,
		"netsim.packets_per_trial":           per("packets"),
		"netsim.drops_per_trial":             per("drops"),
		"netsim.ns_per_packet":               k.packet,
		"tcpsim.segments_per_trial":          per("segments"),
		"tcpsim.retransmit_ratio":            ratio(ph.sum["retransmits"], ph.sum["segments"]),
		"tcpsim.rto_expiries_per_trial":      per("rto"),
		"tcpsim.ns_per_segment":              k.segment,
		"tlsrec.records_per_trial":           per("records"),
		"tlsrec.ns_per_record":               k.record,
		"h2.frames_per_trial":                per("frames"),
		"h2.ns_per_frame":                    k.frame,
		"hpack.ns_per_block":                 k.block,
		"endpoint.gets_per_trial":            per("gets"),
		"endpoint.app_retry_ratio":           ratio(ph.sum["app_retries"], ph.sum["gets"]),
		"endpoint.resets_per_trial":          per("resets"),
		"website.ns_per_body_byte":           k.bodyByte,
		"capture.packets_per_trial":          per("capture_packets"),
		"capture.ns_per_packet":              k.capturePacket,
		"predict.bursts_per_trial":           per("bursts"),
		"predict.ns_per_record":              k.predictRecord,
		"adversary.interventions_per_trial":  per("interventions"),
		"adversary.attempts_per_trial":       per("attempts"),
		"adversary.success_per_attempt":      ratio(ph.sum["successes"], ph.sum["attempts"]),
		"adversary.target_selected_pct":      100 * per("selected"),
		"core.build_ms":                      stageNS(ph.stages, perf.StageBuild) / trials / 1e6,
		"core.run_ms":                        stageNS(ph.stages, perf.StageRun) / trials / 1e6,
		"core.capture_ms":                    stageNS(ph.stages, perf.StageCapture) / trials / 1e6,
		"core.build_allocs":                  stageAllocs(ph.stages, perf.StageBuild) / trials,
		"core.run_allocs":                    stageAllocs(ph.stages, perf.StageRun) / trials,
		"core.capture_allocs":                stageAllocs(ph.stages, perf.StageCapture) / trials,
		"core.run_unattributed_pct":          100 * (1 - ratio(attributed, runNS)),
		"experiment.queue_wait_ms_per_trial": queueWait / trials,
		"experiment.worker_busy_pct":         100 * ratio(busy, open),
		"runtime.gc_cpu_pct":                 100 * ratio(gc1-gc0, cpu1-cpu0),
		"bench.trace_overhead_pct":           100 * (refR.medianTPS()/median(ph.tps) - 1),
	}
	attempted := len(refRes) + len(ph.trials)
	line, err := resultLine(correct, attempted, failed, perLayer, values)
	return line, correct, err
}
