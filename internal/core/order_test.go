package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/trace"
)

// The digests below pin the scheduler's event order end to end. Event
// order is the strict total order on (at, seq), so any correct event queue
// fires the same sequence and these never move; a change that reorders
// events — or any layer change that alters what a trial does — does.
const (
	// seed1TraceDigest is the SHA-256 of the JSONL trace of the seed-1
	// attack trial.
	seed1TraceDigest = "8b7588e616594a8a07bcc092894b66508f56231368ccce7640f94fa85c1d58fb"
	// crossTrafficDigest is the SHA-256 of, for every fired event in
	// step-hook order, its virtual time and the number of events still
	// pending (little-endian int64 each), followed by the JSON TrialResult
	// of a seed-3 attack trial under 50 Mbps Poisson cross traffic. The
	// pending count tells tied events apart: swapping two events that fire
	// at the same instant leaves the time sequence alone but not the
	// count, when only one of them schedules a successor.
	crossTrafficDigest = "557840079165062ba60c57f4d2d2a45ae73dcc0a998e56e1f0ca177ee190dd9b"
)

// TestEventOrderPinned replays two fixed trials and compares their
// digests to the recorded ones.
func TestEventOrderPinned(t *testing.T) {
	plan := adversary.DefaultPlan()

	t.Run("seed1-trace", func(t *testing.T) {
		tr := trace.New(nil, trace.Config{})
		if _, err := RunTrial(TrialConfig{Seed: 1, Attack: &plan, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := tr.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != seed1TraceDigest {
			t.Errorf("seed-1 trace digest = %s, want %s", got, seed1TraceDigest)
		}
	})

	t.Run("crosstraffic-50M", func(t *testing.T) {
		tb, err := NewTestbed(TrialConfig{Seed: 3, Attack: &plan, CrossTrafficBps: 50e6})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [16]byte
		events := 0
		tb.Sched.SetStepHook(func(at time.Duration) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(at))
			binary.LittleEndian.PutUint64(buf[8:], uint64(tb.Sched.Len()))
			h.Write(buf[:])
			events++
		})
		res := tb.Run()
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
		if got := hex.EncodeToString(h.Sum(nil)); got != crossTrafficDigest {
			t.Errorf("cross-traffic digest over %d events = %s, want %s", events, got, crossTrafficDigest)
		}
	})
}
