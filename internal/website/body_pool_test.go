package website_test

import (
	"testing"

	"h2privacy/internal/adversary"
	"h2privacy/internal/core"
	"h2privacy/internal/experiment"
	"h2privacy/internal/website"
)

// TestBodyArraySurvivesPoisonedTrial runs attack trials with the buffer
// arena armed and poisoning on — every recycled buffer is scribbled — and
// requires the shared body array to come out unchanged: no layer writes
// into a served body or hands it to the arena.
func TestBodyArraySurvivesPoisonedTrial(t *testing.T) {
	before := append([]byte(nil), website.BodyPattern...)
	plan := adversary.DefaultPlan()
	opts := experiment.Options{Trials: 2, BaseSeed: 4242, Workers: 1, PoolPoison: true}
	if _, err := opts.Sweep(opts.Trials, func(tr int) core.TrialConfig {
		return core.TrialConfig{Seed: opts.BaseSeed + int64(tr), Attack: &plan}
	}); err != nil {
		t.Fatal(err)
	}
	for j := range before {
		if website.BodyPattern[j] != before[j] {
			t.Fatalf("shared body array changed at offset %d: %#x, was %#x", j, website.BodyPattern[j], before[j])
		}
	}
}
