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
	// crossTrafficResultDigest is the SHA-256 of the JSON TrialResult of a
	// seed-3 attack trial under 50 Mbps Poisson cross traffic.
	crossTrafficResultDigest = "f878b90a553326dcc658ab4659d426992248839f4f1e2f12c8b0be37f00d1831"
	// crossTrafficEventDigest is the SHA-256 of, for every event that
	// trial fires in step-hook order, its virtual time and the number of
	// events still pending (little-endian int64 each). The pending count
	// tells tied events apart: swapping two events that fire at the same
	// instant leaves the time sequence alone but not the count, when only
	// one of them schedules a successor.
	crossTrafficEventDigest = "b99692612a0537ef9b122058c495ea630e9278f873170b1604d63ac33ad6051e"
	crossTrafficEvents      = 552081
	// crossTrafficPrefixDigest is the same digest over the events fired up
	// to and including the generator's stop at idle. A generator that runs
	// on to its 40 s cap fires the very same prefix (and 1,264,512 events
	// in all), so stopping at idle changes nothing before the stop.
	crossTrafficPrefixDigest = "b5890fa5ae40f23f9531e3e35b64bb671d287056a81a3eba26c5cf00c75aa0dd"
	crossTrafficStopEvents   = 551998
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
		all, prefix := sha256.New(), sha256.New()
		var buf [16]byte
		events, stop := 0, -1
		tb.Sched.SetStepHook(func(at time.Duration) {
			// The hook runs before the callback, so the first event to see
			// the generator stopped is the one after the stopping tick.
			if stop < 0 && tb.CrossTraffic.Stopped() {
				stop = events
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(at))
			binary.LittleEndian.PutUint64(buf[8:], uint64(tb.Sched.Len()))
			all.Write(buf[:])
			if stop < 0 {
				prefix.Write(buf[:])
			}
			events++
		})
		res := tb.Run()
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(js); hex.EncodeToString(got[:]) != crossTrafficResultDigest {
			t.Errorf("cross-traffic result digest = %x, want %s", got, crossTrafficResultDigest)
		}
		if got := hex.EncodeToString(all.Sum(nil)); events != crossTrafficEvents || got != crossTrafficEventDigest {
			t.Errorf("cross-traffic event digest over %d events = %s, want %s over %d",
				events, got, crossTrafficEventDigest, crossTrafficEvents)
		}
		if got := hex.EncodeToString(prefix.Sum(nil)); stop != crossTrafficStopEvents || got != crossTrafficPrefixDigest {
			t.Errorf("events up to the generator's stop: %d with digest %s, want %d with %s",
				stop, got, crossTrafficStopEvents, crossTrafficPrefixDigest)
		}
	})
}
