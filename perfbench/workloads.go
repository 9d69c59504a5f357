package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"h2privacy/internal/adversary"
	"h2privacy/internal/core"
	"h2privacy/internal/website"
)

// workload is one trial shape the benchmark sweeps. The shapes are fixed
// by the paper's experiments; the trial counts are the benchmark's.
type workload struct {
	name string
	// trial builds the configuration of the trial with the given seed.
	trial func(seed int64) core.TrialConfig
	// batchPerWorker is how many trials each worker gets per Sweep call of
	// the timed loop: enough that the engine's fan-out and tail are a small
	// share of a round, few enough that a run holds ten rounds or more.
	batchPerWorker int
	// warmPerWorker is how many warm-up trials each worker runs in one
	// set-up: enough that a set-up takes a few hundred milliseconds at
	// least, so scheduling noise does not dominate setup_s.
	warmPerWorker int
	// outcomeTrials is how many trials, from the first seed on, the outcome
	// metrics count. The timed loop runs at least this many, so the outcome
	// metrics depend on the seed alone, not on how fast the host is.
	outcomeTrials int
	// checkedTrials is how many trials, from the first seed on, the checked
	// pass re-runs unpooled with invariant checking armed.
	checkedTrials int
	// fleet marks the shared-bottleneck shape, whose testbed core builds
	// internally: its traced run reads TrialResult/FleetOutcome instead of
	// a benchmark-built core.NewTestbed.
	fleet bool
}

// Fleet shape: the top row of the fleetscale experiment.
const (
	fleetN      = 1000
	fleetBudget = 1
)

// crossTrafficBps is the heaviest row of the crosstraffic experiment.
const crossTrafficBps = 300e6

func workloads() []workload {
	plan := adversary.DefaultPlan()
	adaptive := adversary.DefaultPlan()
	adaptive.Adaptive = true
	return []workload{
		{
			// Table II's trial: the full staged attack on one flow.
			name: "attack",
			trial: func(seed int64) core.TrialConfig {
				return core.TrialConfig{Seed: seed, Attack: &plan}
			},
			batchPerWorker: 16,
			warmPerWorker:  16,
			outcomeTrials:  400,
			checkedTrials:  16,
		},
		{
			name: "fleet",
			trial: func(seed int64) core.TrialConfig {
				return core.TrialConfig{Seed: seed, Attack: &adaptive,
					Fleet: &core.FleetConfig{N: fleetN, Budget: fleetBudget}}
			},
			batchPerWorker: 2,
			warmPerWorker:  1,
			outcomeTrials:  16,
			checkedTrials:  2,
			fleet:          true,
		},
		{
			// Runs under the engine's zero-value supervision: no step budget.
			name: "crosstraffic",
			trial: func(seed int64) core.TrialConfig {
				return core.TrialConfig{Seed: seed, Attack: &plan, CrossTrafficBps: crossTrafficBps}
			},
			batchPerWorker: 1,
			warmPerWorker:  1,
			outcomeTrials:  8,
			checkedTrials:  1,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// mix is the splitmix64 finalizer over (a, b): different base seeds give
// unrelated trial seed streams, so two runs never share trials.
func mix(a, b uint64) int64 {
	z := a*0x9e3779b97f4a7c15 + b + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// trialSeed is the seed of measured trial t of a run with base seed base.
func trialSeed(base int64, t int) int64 { return mix(uint64(base), uint64(t)) }

// warmSeed is the seed of warm-up trial k, disjoint from the measured ones.
func warmSeed(base int64, k int) int64 { return mix(^uint64(base), uint64(k)) }

// digestLine is one trial's entry in the results digest: the seed and
// everything the paper's tables are computed from.
func digestLine(seed int64, res *core.TrialResult) string {
	if res == nil {
		return fmt.Sprintf("%d <no result>", seed)
	}
	ids := make([]string, 0, len(res.Identified))
	for id, ok := range res.Identified {
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return fmt.Sprintf("%d seq=%s ids=%s outcome=%s broken=%t",
		seed, strings.Join(res.InferredSeq, ","), strings.Join(ids, ","), res.Outcome, res.Broken)
}

// trialRecord is what the benchmark keeps of a trial once it has run.
// Keeping whole results would grow the heap with the run's length and show
// up in its memory metric.
type trialRecord struct {
	line    string // the trial's results-digest line
	problem string // why the result is malformed; "" when well formed
	success bool   // ObjectSuccess(website.TargetID)
	broken  bool
}

func (wl workload) record(seed int64, res *core.TrialResult) trialRecord {
	r := trialRecord{line: digestLine(seed, res), problem: wl.sane(res)}
	if res != nil {
		r.success, r.broken = res.ObjectSuccess(website.TargetID), res.Broken
	}
	return r
}

// digest hashes the trials' digest lines.
func digest(trials []trialRecord) string {
	h := sha256.New()
	for _, t := range trials {
		fmt.Fprintln(h, t.line)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// firstMismatch compares two runs of the same seeds trial by trial and
// describes the first trial whose digest lines differ ("" when none do).
func firstMismatch(a, b []trialRecord) string {
	for t := 0; t < len(a) && t < len(b); t++ {
		if a[t].line != b[t].line {
			return fmt.Sprintf("trial %d: %q vs %q", t, a[t].line, b[t].line)
		}
	}
	return ""
}

// sane reports why a completed trial's result is malformed ("" when it is
// well formed).
func (wl workload) sane(res *core.TrialResult) string {
	switch {
	case res == nil:
		return "no result"
	case res.Quarantined:
		return "quarantined"
	case len(res.TrueSeq) != website.PartyCount || len(res.DisplaySeq) != website.PartyCount:
		return fmt.Sprintf("emblem sequences of length %d/%d", len(res.TrueSeq), len(res.DisplaySeq))
	}
	if !wl.fleet && !res.Attacked {
		return "attack not armed"
	}
	if wl.fleet {
		f := res.Fleet
		switch {
		case f == nil:
			return "no fleet outcome"
		case f.N != fleetN || len(f.Decoys) != fleetN-1:
			return fmt.Sprintf("fleet of %d flows with %d decoys", f.N, len(f.Decoys))
		case f.BudgetPeak > fleetBudget:
			return fmt.Sprintf("budget peak %d over budget %d", f.BudgetPeak, fleetBudget)
		}
	}
	return ""
}
