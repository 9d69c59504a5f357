package main

import (
	"fmt"
	"io"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
)

// sweepRounds is what rounds ran: the trials in seed order, and the
// throughput of each round.
type sweepRounds struct {
	trials  []trialRecord
	tps     []float64
	elapsed time.Duration
}

// medianTPS is the median of the rounds' throughputs, which a burst of load
// from elsewhere on the host moves less than the overall mean.
func (r sweepRounds) medianTPS() float64 { return median(r.tps) }

// rounds runs the workload's trials at seeds trialSeed(base, 0, 1, ...)
// through opts.Sweep, one batch per call, until minDur has passed and at
// least minTrials trials have run. each, when non-nil, sees every result
// in seed order before it is dropped.
func rounds(opts experiment.Options, wl workload, base int64, minDur time.Duration, minTrials int, each func(t int, res *core.TrialResult)) (sweepRounds, error) {
	batch := wl.batchPerWorker * opts.Workers
	var r sweepRounds
	start := time.Now()
	for len(r.trials) < minTrials || time.Since(start) < minDur {
		t0 := len(r.trials)
		roundStart := time.Now()
		res, err := opts.Sweep(batch, func(i int) core.TrialConfig {
			return wl.trial(trialSeed(base, t0+i))
		})
		if err != nil {
			return r, fmt.Errorf("%s: trials %d..%d: %w", wl.name, t0, t0+batch-1, err)
		}
		r.tps = append(r.tps, float64(batch)/time.Since(roundStart).Seconds())
		for i, one := range res {
			if each != nil {
				each(t0+i, one)
			}
			r.trials = append(r.trials, wl.record(trialSeed(base, t0+i), one))
		}
	}
	r.elapsed = time.Since(start)
	return r, nil
}

// setupOnce is one set-up: a fresh engine configuration and a warm-up
// sweep of wl.warmPerWorker trials per worker.
func setupOnce(wl workload, base int64, workers, k int) (time.Duration, error) {
	start := time.Now()
	opts := experiment.Options{Workers: workers}
	n := wl.warmPerWorker * workers
	res, err := opts.Sweep(n, func(i int) core.TrialConfig {
		return wl.trial(warmSeed(base, k*n+i))
	})
	if err != nil {
		return 0, fmt.Errorf("%s: warm-up: %w", wl.name, err)
	}
	for i, r := range res {
		if why := wl.sane(r); why != "" {
			return 0, fmt.Errorf("%s: warm-up trial %d: %s", wl.name, i, why)
		}
	}
	return time.Since(start), nil
}

// runTimed measures the end-to-end metrics with tracing off and checks the
// outputs. It returns the result line and whether every check passed.
func runTimed(wl workload, p runParams, stdout io.Writer) (string, bool, error) {
	startup := launchOffset()
	setups := make([]float64, p.setups)
	for k := range setups {
		d, err := setupOnce(wl, p.seed, p.workers, k)
		if err != nil {
			return "", false, err
		}
		setups[k] = d.Seconds()
	}

	// Degraded mode: a failing trial is counted, not fatal, so the run can
	// report how many failed.
	opts := experiment.Options{Workers: p.workers, Quarantine: experiment.NewQuarantine()}
	a0, cpu0 := allocObjects(), processCPU()
	heap := watchHeap()
	tr, err := rounds(opts, wl, p.seed, p.seconds, wl.outcomeTrials, nil)
	cpu := processCPU() - cpu0
	heapPeak, heapMedian := heap.finish()
	fmt.Fprintf(stdout, "perfbench memory max_rss_mb=%.2f peak_live_heap_mb=%.2f median_live_heap_mb=%.2f\n", maxRSSMB(), heapPeak, heapMedian)
	if err != nil {
		return "", false, err
	}
	timed := tr.trials
	allocs := allocObjects() - a0

	// The checked pass: the same first seeds, unpooled, invariant checks
	// armed on every layer.
	rec := check.NewRecorder()
	copts := experiment.Options{Workers: p.workers, Check: rec, NoPool: true, Quarantine: experiment.NewQuarantine()}
	checkedRes, err := copts.Sweep(wl.checkedTrials, func(i int) core.TrialConfig {
		return wl.trial(trialSeed(p.seed, i))
	})
	if err != nil {
		return "", false, fmt.Errorf("%s: checked pass: %w", wl.name, err)
	}
	checked := make([]trialRecord, len(checkedRes))
	for t, res := range checkedRes {
		checked[t] = wl.record(trialSeed(p.seed, t), res)
		if res != nil && res.CheckViolations > 0 {
			checked[t].problem += fmt.Sprintf(" %d invariant violations", res.CheckViolations)
		}
	}

	correct := true
	failed := 0
	for _, part := range []struct {
		name   string
		trials []trialRecord
	}{{"timed", timed}, {"checked", checked}} {
		for t, r := range part.trials {
			if r.problem != "" {
				failed++
				correct = false
				fmt.Fprintf(stdout, "perfbench FAIL %s trial %d (seed %d): %s\n", part.name, t, trialSeed(p.seed, t), r.problem)
			}
		}
	}
	if v, ok := rec.First(); ok {
		fmt.Fprintf(stdout, "perfbench FAIL first invariant violation: %v\n", v)
	}
	prefix := timed[:len(checked)]
	if m := firstMismatch(prefix, checked); m != "" {
		correct = false
		fmt.Fprintf(stdout, "perfbench FAIL timed (pooled) and checked (unpooled) results differ: %s\n", m)
	}
	q := quartiles(tr.tps)
	fmt.Fprintf(stdout, "perfbench timed trials=%d rounds=%d elapsed_s=%.3f round_trials_per_s_quartiles=%.4g/%.4g/%.4g cpu_ms_per_trial=%.4g digest=%s\n",
		len(timed), len(tr.tps), tr.elapsed.Seconds(), q[0], q[1], q[2], 1000*cpu.Seconds()/float64(len(timed)), digest(timed))
	fmt.Fprintf(stdout, "perfbench checked trials=%d violations=%d digest=%s timed-digest=%s\n",
		len(checked), rec.Total(), digest(checked), digest(prefix))

	var success, intact float64
	outcome := timed[:wl.outcomeTrials]
	for _, r := range outcome {
		if r.success {
			success++
		}
		if !r.broken {
			intact++
		}
	}
	attempted := len(timed) + len(checked)
	values := map[string]float64{
		"trials_per_s":       tr.medianTPS(),
		"allocs_per_trial":   float64(allocs) / float64(len(timed)),
		"live_heap_mb":       heapMedian,
		"setup_s":            startup.Seconds() + median(setups),
		"target_success_pct": 100 * success / float64(len(outcome)),
		"loads_intact_pct":   100 * intact / float64(len(outcome)),
		"trials_ok_pct":      100 * float64(attempted-failed) / float64(attempted),
	}
	line, err := resultLine(correct, attempted, failed, endToEnd, values)
	return line, correct, err
}
