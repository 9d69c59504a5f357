package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// schedModel is the reference the scheduler is checked against: a sorted
// slice of pending events ordered by (at, seq), each with its class, a
// step counter, the stall window, the pending foreground count, and the
// free list as a LIFO stack of fired handles.
type schedModel struct {
	now      time.Duration
	seq      uint64
	steps    uint64
	winEnd   time.Duration // end of the stall window
	winRun   int           // events fired in the stall window
	fg       int           // pending foreground events
	pending  []modelEvent
	free     []*Event        // fired handles, most recent last
	occupant map[*Event]int  // handle → id of the pending event using it
	seen     map[*Event]bool // every handle ever returned
	dead     map[*Event]bool // cancelled handles: never handed out again
	handles  []*Event        // every handle returned, fired ones included
	fired    []int           // ids in firing order, as the callbacks saw them
	want     []int           // ids in firing order, as the model predicts
	byID     []callbackLog   // indexed by event id
	err      error           // first divergence found while booking or firing
}

// callbackLog is what an event's callback did, recorded when the
// scheduler fired it and read back when the model does.
type callbackLog struct {
	kids   []modelKid // events it scheduled, in order
	fgSeen int        // foreground events pending as it ran
}

type modelEvent struct {
	at  time.Duration
	seq uint64
	id  int
	ev  *Event
	bg  bool
}

// modelKid is an event a callback scheduled. The scheduler ran ahead of
// the model, so the model books it when it fires the parent.
type modelKid struct {
	id   int
	ev   *Event
	at   time.Duration
	wrap bool // scheduled inside Background
}

func (m *schedModel) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// book records a newly scheduled event: the handle must come off the free
// list (or be brand new), and the event joins pending under the next seq.
func (m *schedModel) book(id int, ev *Event, at time.Duration, bg bool) {
	if m.dead[ev] {
		m.failf("a cancelled handle was handed out again")
	}
	if k := len(m.free); k > 0 {
		if ev != m.free[k-1] {
			m.failf("schedule did not reuse the most recently fired event")
		}
		m.free = m.free[:k-1]
	} else if m.seen[ev] {
		m.failf("schedule reused a handle that is not on the free list")
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
	m.pending[i] = modelEvent{at: at, seq: m.seq, id: id, ev: ev, bg: bg}
	m.seq++
	if !bg {
		m.fg++
	}
}

// fire records the model's earliest pending event as fired, then books
// the events its callback scheduled: background if the event was, or if
// scheduled inside Background. It reports false, leaving the event
// pending and restarting the window, when the event would put more than
// stallLimit fires into one stall window.
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
	if !e.bg {
		m.fg--
	}
	cb := &m.byID[e.id]
	if cb.fgSeen != m.fg {
		m.failf("event %d saw %d foreground events pending, model %d", e.id, cb.fgSeen, m.fg)
	}
	for _, k := range cb.kids {
		m.book(k.id, k.ev, k.at, e.bg || k.wrap)
	}
	// The scheduler recycles a fired event after its callback returns,
	// so the callback's own schedules cannot reuse it.
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

	// A plan is a child an event's callback schedules when it fires.
	type plan struct {
		kind int
		off  time.Duration
		wrap bool
	}
	var plans [][]plan // indexed by event id
	piling := false
	var arm func(kind int, at time.Duration, wrap bool) (int, *Event)
	fired := func(id int) {
		m.fired = append(m.fired, id)
		m.byID[id].fgSeen = s.fg
		for _, p := range plans[id] {
			at := s.Now() + p.off
			kid, ev := arm(p.kind, at, p.wrap)
			// arm may grow byID, so index it afresh.
			m.byID[id].kids = append(m.byID[id].kids, modelKid{id: kid, ev: ev, at: at, wrap: p.wrap})
		}
	}
	record := func(v any) { fired(v.(int)) }
	// arm schedules a new event on the scheduler through one of its three
	// entry points, inside Background when wrap is set. Outside a stall
	// pile, one event in four plans one or two children (an expected
	// 0.375 per event, so chains die out).
	arm = func(kind int, at time.Duration, wrap bool) (int, *Event) {
		id := len(plans)
		var pl []plan
		if !piling && r.Intn(4) == 0 {
			for k := 1 + r.Intn(2); k > 0; k-- {
				pl = append(pl, plan{r.Intn(3), offsets[r.Intn(len(offsets))], r.Intn(3) == 0})
			}
		}
		plans = append(plans, pl)
		m.byID = append(m.byID, callbackLog{})
		var ev *Event
		sched := func() {
			switch kind {
			case 0:
				ev = s.At(at, func() { fired(id) })
			case 1:
				ev = s.AtArg(at, record, id)
			default:
				ev = s.After(at-s.Now(), func() { fired(id) })
			}
		}
		if wrap {
			s.Background(sched)
		} else {
			sched()
		}
		if ev.Time() != at {
			m.failf("Time() = %v, want %v", ev.Time(), at)
		}
		return id, ev
	}

	// schedule arms an event from outside any callback, where its class is
	// foreground unless wrapped in Background.
	schedule := func(kind int, at time.Duration, wrap bool) bool {
		id, ev := arm(kind, at, wrap)
		m.book(id, ev, at, wrap)
		if m.err != nil {
			return fail("%v", m.err)
		}
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
				if !p.bg {
					m.fg--
				}
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		delete(m.occupant, ev)
		m.dead[ev] = true
	}

	// agree compares the scheduler with the model after an op.
	checked := 0 // fired ids already compared
	agree := func(when string) bool {
		if m.err != nil {
			return fail("%s: %v", when, m.err)
		}
		if s.Now() != m.now || s.Len() != len(m.pending) || s.Steps() != m.steps {
			return fail("%s: now/len/steps = %v/%d/%d, model %v/%d/%d",
				when, s.Now(), s.Len(), s.Steps(), m.now, len(m.pending), m.steps)
		}
		if s.fg != m.fg || s.Busy() != (m.fg > 0) {
			return fail("%s: %d foreground events pending, Busy() = %v; model %d",
				when, s.fg, s.Busy(), m.fg)
		}
		if len(m.fired) != len(m.want) {
			return fail("%s: %d events fired, model %d", when, len(m.fired), len(m.want))
		}
		for ; checked < len(m.want); checked++ {
			if m.fired[checked] != m.want[checked] {
				return fail("%s: firing order diverges at %d: %d, model %d", when, checked, m.fired[checked], m.want[checked])
			}
		}
		return true
	}

	// One program in 32 piles enough events onto Now, at one random op,
	// to overfill the stall window.
	stallOp := -1
	if r.Intn(32) == 0 {
		stallOp = r.Intn(n)
	}
	for op := 0; op < n; op++ {
		switch c := r.Intn(20); {
		case op == stallOp:
			// Stall trip: Run fires until the window holds stallLimit
			// events; the event that would exceed it stays pending with
			// its seq.
			piling = true
			for i, pile := 0, stallLimit+r.Intn(3); i < pile; i++ {
				if !schedule(r.Intn(3), s.Now(), r.Intn(4) == 0) {
					return false
				}
			}
			piling = false
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
			if !schedule(c%3, s.Now()+offsets[r.Intn(len(offsets))], r.Intn(4) == 0) {
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
		if !agree(fmt.Sprintf("op %d", op)) {
			return false
		}
	}

	// Interrupt: fill past one poll window, arm the probe and run. The
	// event whose step lands on the poll boundary is counted, pushed back
	// and stays pending; the run stops there for good.
	for len(m.pending) < pollEvery+64 {
		if !schedule(r.Intn(3), s.Now()+offsets[r.Intn(len(offsets))], r.Intn(4) == 0) {
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
	if !agree("after interrupt") {
		return false
	}
	if ev := s.peek(); ev == nil || ev.Time() != m.pending[0].at || m.occupant[ev] != m.pending[0].id {
		return fail("the pushed-back event is not the earliest pending one")
	}
	// Cancelling everything left, the pushed-back event included, must
	// bring the foreground count to exactly zero.
	for len(m.pending) > 0 {
		cancel(m.pending[0].ev)
	}
	return agree("after cancelling the rest")
}

// TestSchedulerMatchesModel checks random op sequences — At/AtArg/After
// at heavily tied times, in the foreground or inside Background, from
// outside any event or from callbacks (so background inherits), Cancel of
// pending, cancelled and fired (possibly recycled) handles, Step,
// RunUntil, a stall-rule trip and a final interrupt — against a
// sorted-slice reference ordered by (at, seq), including the free list's
// reuse order and the pending foreground count behind Busy, checked after
// every op and as each callback saw it.
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
