package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// schedModel is the reference the scheduler is checked against: a sorted
// slice of pending events ordered by (at, seq), a step counter, the stall
// window, and the free list as a LIFO stack of fired handles.
type schedModel struct {
	now      time.Duration
	seq      uint64
	steps    uint64
	winEnd   time.Duration // end of the stall window
	winRun   int           // events fired in the stall window
	pending  []modelEvent
	free     []*Event        // fired handles, most recent last
	occupant map[*Event]int  // handle → id of the pending event using it
	seen     map[*Event]bool // every handle ever returned
	dead     map[*Event]bool // cancelled handles: never handed out again
	handles  []*Event        // every handle returned, fired ones included
	fired    []int           // ids in firing order, as the callbacks saw them
	want     []int           // ids in firing order, as the model predicts
}

type modelEvent struct {
	at  time.Duration
	seq uint64
	id  int
	ev  *Event
}

// fire records the model's earliest pending event as fired. It reports
// false, leaving the event pending and restarting the window, when the
// event would put more than stallLimit fires into one stall window.
func (m *schedModel) fire() bool {
	e := m.pending[0]
	if e.at >= m.winEnd {
		m.winEnd = e.at + stallWindow
		m.winRun = 0
	}
	if m.winRun++; m.winRun > stallLimit {
		m.winRun = 0
		return false
	}
	m.pending = m.pending[1:]
	m.steps++
	m.now = e.at
	m.want = append(m.want, e.id)
	delete(m.occupant, e.ev)
	m.free = append(m.free, e.ev)
	return true
}

// runModelProgram drives a Scheduler and the model through n random ops
// drawn from seed and reports the first divergence.
func runModelProgram(t *testing.T, seed int64, n int) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := NewScheduler()
	m := &schedModel{
		occupant: map[*Event]int{},
		seen:     map[*Event]bool{},
		dead:     map[*Event]bool{},
	}
	fail := func(format string, args ...any) bool {
		t.Helper()
		t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		return false
	}
	// Few distinct offsets, so many pending events share a time and only
	// seq orders them.
	offsets := []time.Duration{0, 0, 0, time.Microsecond, time.Microsecond, 2 * time.Microsecond, 7 * time.Microsecond}
	record := func(v any) { m.fired = append(m.fired, v.(int)) }
	nextID := 0

	schedule := func(kind int, at time.Duration) bool {
		id := nextID
		nextID++
		var ev *Event
		switch kind {
		case 0:
			ev = s.At(at, func() { m.fired = append(m.fired, id) })
		case 1:
			ev = s.AtArg(at, record, id)
		default:
			ev = s.After(at-s.Now(), func() { m.fired = append(m.fired, id) })
		}
		if m.dead[ev] {
			return fail("a cancelled handle was handed out again")
		}
		if k := len(m.free); k > 0 {
			if ev != m.free[k-1] {
				return fail("schedule did not reuse the most recently fired event")
			}
			m.free = m.free[:k-1]
		} else if m.seen[ev] {
			return fail("schedule reused a handle that is not on the free list")
		}
		if ev.Time() != at {
			return fail("Time() = %v, want %v", ev.Time(), at)
		}
		m.seen[ev] = true
		m.occupant[ev] = id
		m.handles = append(m.handles, ev)
		i := sort.Search(len(m.pending), func(i int) bool {
			p := m.pending[i]
			return p.at > at || (p.at == at && p.seq > m.seq)
		})
		m.pending = append(m.pending, modelEvent{})
		copy(m.pending[i+1:], m.pending[i:])
		m.pending[i] = modelEvent{at: at, seq: m.seq, id: id, ev: ev}
		m.seq++
		return true
	}

	cancel := func(ev *Event) {
		s.Cancel(ev)
		id, ok := m.occupant[ev]
		if !ok {
			return // cancelled, or fired and not re-armed: a no-op
		}
		for i, p := range m.pending {
			if p.id == id {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		delete(m.occupant, ev)
		m.dead[ev] = true
	}

	// One program in 32 piles enough events onto Now, at one random op,
	// to overfill the stall window.
	stallOp := -1
	if r.Intn(32) == 0 {
		stallOp = r.Intn(n)
	}
	checked := 0
	for op := 0; op < n; op++ {
		switch c := r.Intn(20); {
		case op == stallOp:
			// Stall trip: Run fires until the window holds stallLimit
			// events; the event that would exceed it stays pending with
			// its seq.
			for i, pile := 0, stallLimit+r.Intn(3); i < pile; i++ {
				if !schedule(r.Intn(3), s.Now()) {
					return false
				}
			}
			tripped := func() (tripped bool) {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(*StallError); !ok {
							panic(rec)
						}
						tripped = true
					}
				}()
				s.Run()
				return false
			}()
			wantTrip := false
			for len(m.pending) > 0 && !wantTrip {
				wantTrip = !m.fire()
			}
			if tripped != wantTrip {
				return fail("stall trip = %v, want %v", tripped, wantTrip)
			}
		case c < 9:
			if !schedule(c%3, s.Now()+offsets[r.Intn(len(offsets))]) {
				return false
			}
		case c < 13:
			// Any handle: pending, cancelled, or fired (possibly re-armed
			// since, in which case Cancel hits the event now using it).
			if len(m.handles) > 0 {
				cancel(m.handles[r.Intn(len(m.handles))])
			}
		case c < 16:
			ran := s.Step()
			if ran != (len(m.pending) > 0) {
				return fail("Step() = %v with %d pending", ran, len(m.pending))
			}
			if ran {
				m.fire()
			}
		default:
			deadline := s.Now() + offsets[r.Intn(len(offsets))]
			s.RunUntil(deadline)
			for len(m.pending) > 0 && m.pending[0].at <= deadline {
				m.fire()
			}
			if m.now < deadline {
				m.now = deadline
			}
		}
		if s.Now() != m.now || s.Len() != len(m.pending) || s.Steps() != m.steps {
			return fail("op %d: now/len/steps = %v/%d/%d, model %v/%d/%d",
				op, s.Now(), s.Len(), s.Steps(), m.now, len(m.pending), m.steps)
		}
		if len(m.fired) != len(m.want) {
			return fail("op %d: %d events fired, model %d", op, len(m.fired), len(m.want))
		}
		for ; checked < len(m.want); checked++ {
			if m.fired[checked] != m.want[checked] {
				return fail("op %d: firing order diverges at %d: %d, model %d", op, checked, m.fired[checked], m.want[checked])
			}
		}
	}

	// Interrupt: fill past one poll window, arm the probe and run. The
	// event whose step lands on the poll boundary is counted, pushed back
	// and stays pending; the run stops there for good.
	for len(m.pending) < pollEvery+64 {
		if !schedule(r.Intn(3), s.Now()+offsets[r.Intn(len(offsets))]) {
			return false
		}
	}
	s.SetInterrupt(func() bool { return true })
	s.Run()
	if !s.Interrupted() {
		return fail("interrupt probe did not stop the run")
	}
	for (m.steps+1)%pollEvery != 0 {
		m.fire()
	}
	m.steps++
	if s.Step() {
		return fail("Step ran an event after the interrupt")
	}
	if s.Now() != m.now || s.Len() != len(m.pending) || s.Steps() != m.steps {
		return fail("after interrupt: now/len/steps = %v/%d/%d, model %v/%d/%d",
			s.Now(), s.Len(), s.Steps(), m.now, len(m.pending), m.steps)
	}
	for i := range m.want {
		if m.fired[i] != m.want[i] {
			return fail("after interrupt: firing order diverges at %d", i)
		}
	}
	if ev := s.peek(); ev == nil || ev.Time() != m.pending[0].at || m.occupant[ev] != m.pending[0].id {
		return fail("the pushed-back event is not the earliest pending one")
	}
	return true
}

// TestSchedulerMatchesModel checks random op sequences — At/AtArg/After
// at heavily tied times, Cancel of pending, cancelled and fired (possibly
// recycled) handles, Step, RunUntil, a stall-rule trip and a final
// interrupt — against a sorted-slice reference ordered by (at, seq),
// including the free list's reuse order.
func TestSchedulerMatchesModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(seed int64) bool { return runModelProgram(t, seed, 400) }, cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSchedulerDepth512 holds ~520 pending events — the mean queue
// depth of a 300 Mbps cross-traffic trial — and fires one per op, each
// rescheduling itself at an exponential delay, so the op is one pop plus
// one push at that depth. Steady state allocates nothing.
func BenchmarkSchedulerDepth512(b *testing.B) {
	const depth = 520
	s := NewScheduler()
	rng := NewRand(1)
	var fire func(any)
	fire = func(any) { s.AfterArg(rng.Exponential(time.Millisecond), fire, nil) }
	for i := 0; i < depth; i++ {
		s.AfterArg(rng.Exponential(time.Millisecond), fire, nil)
	}
	// One warm-up step leaves a fired event on the free list, so every
	// measured step's reschedule reuses one.
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	if s.Len() != depth {
		b.Fatalf("depth drifted to %d", s.Len())
	}
}
