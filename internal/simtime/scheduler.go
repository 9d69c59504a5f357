// Package simtime provides a deterministic discrete-event scheduler with a
// virtual clock. All simulated components (links, TCP endpoints, HTTP/2
// applications, the adversary) run as callbacks on a single Scheduler, so an
// entire trial is single-threaded and bit-reproducible for a given seed.
//
// Events come in two classes. Foreground events are the default.
// Background events are load that nothing in the foreground reads back
// (netsim's cross traffic): an event scheduled while a background event
// runs, or inside Background, is itself background, so a background
// source and everything it causes stay background. Busy reports whether
// any foreground event is still pending; once it is false during a
// background event, no foreground event can ever be scheduled again. The
// class never changes the order events fire in.
package simtime

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. Events fire in (time, sequence) order;
// the sequence number makes simultaneous events deterministic (FIFO).
//
// Fired events are recycled through a per-scheduler free list (trials
// schedule hundreds of thousands of short-lived timer events, and the
// scheduler is the hottest allocation site of a trial). An Event is
// single-owner: once its callback has run, the handle returned by At/After
// is dead and the owner must drop it — every component in this repo clears
// its stored handle inside the callback (or immediately after Cancel), so
// a recycled struct is never reachable through a stale handle. Cancelling
// a pending or already-cancelled event remains a safe no-op; cancelled
// events are deliberately NOT recycled, so double-Cancel can never corrupt
// a reused event.
type Event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	fnA  func(any) // AtArg form: pre-bound callback + argument, no closure
	arg  any
	idx  int // heap index; -1 once removed
	dead bool
	bg   bool   // background class (see the package comment)
	next *Event // free-list link; non-nil only while recycled
}

// Time reports the virtual time at which the event will fire.
func (e *Event) Time() time.Duration { return e.at }

// Scheduler is a discrete-event executor over a virtual clock.
// The zero value is ready to use.
type Scheduler struct {
	now      time.Duration
	nextSeq  uint64
	queue    eventHeap
	running  bool
	free     *Event // recycled fired events (see Event)
	stepHook func(time.Duration)

	// Event classes (see the package comment): bg is the class new events
	// get, fg counts the pending foreground events.
	bg bool
	fg int

	// Stall rule and cancellation state (see StallError / SetInterrupt).
	steps       uint64
	stallEnd    time.Duration // end of the current stall window
	stallFrom   uint64        // steps when the current window opened
	interrupt   func() bool
	interrupted bool
}

// pollEvery is how often (in fired events) the interrupt hook is polled.
const pollEvery = 1024

// The stall rule: a simulation is wedged when virtual time stops
// advancing. A window opens at the first event fired at or past the
// previous window's end and spans stallWindow of virtual time; the event
// that would make it hold more than stallLimit fired events panics with
// *StallError instead. The busiest trials in this repo peak below 700
// events per virtual millisecond (1 Gbps cross-traffic), so the limit
// leaves ~100x headroom, while a zero-delay loop trips within 65,536
// events. The rule reads no host clock: it trips at the same event on
// every host.
const (
	stallWindow = time.Millisecond
	stallLimit  = 1 << 16
)

// StallError is the panic value raised when virtual time stops advancing
// (see stallLimit): a self-rescheduling zero-delay loop, or a creep too
// slow to ever reach the trial's horizon. The event that tripped the rule
// stays pending with its sequence number, and the window restarts, so a
// recovering caller sees a coherent scheduler.
type StallError struct {
	Steps uint64        // events fired before the trip
	Now   time.Duration // virtual time at the trip
}

func (e *StallError) Error() string {
	return fmt.Sprintf("simtime: stalled: over %d events within %v of virtual time (%d events fired, virtual time %v)",
		stallLimit, stallWindow, e.Steps, e.Now)
}

// Steps reports how many events have fired so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// SetInterrupt installs a cooperative cancellation probe, polled every
// pollEvery fired events: when fn reports true, the run loops stop
// stepping (Step returns false) and Interrupted reports true. The sweep
// engine wires a context's Err here so a SIGINT drains mid-trial instead
// of waiting out the simulation. nil removes the probe.
func (s *Scheduler) SetInterrupt(fn func() bool) { s.interrupt = fn }

// Interrupted reports whether the interrupt probe has stopped a run.
func (s *Scheduler) Interrupted() bool { return s.interrupted }

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// SetStepHook installs a callback invoked with each fired event's time,
// just before its callback runs. Invariant checkers use it to assert
// clock monotonicity; simtime stays free of higher-layer imports by
// taking a plain func. nil removes the hook.
func (s *Scheduler) SetStepHook(fn func(time.Duration)) { s.stepHook = fn }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// Busy reports whether any foreground event is pending. Called from an
// event's callback, it does not count that event itself.
func (s *Scheduler) Busy() bool { return s.fg > 0 }

// Background runs fn at once with background as the class of every
// event it schedules; by inheritance, everything those events schedule
// is background too. Called inside a background event it changes
// nothing.
func (s *Scheduler) Background(fn func()) {
	prev := s.bg
	s.bg = true
	defer func() { s.bg = prev }()
	fn()
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it is always a simulation bug, never a recoverable
// condition.
func (s *Scheduler) At(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: At called with nil callback")
	}
	if at < s.now {
		panic(fmt.Sprintf("simtime: event scheduled in the past: at=%v now=%v", at, s.now))
	}
	ev := s.free
	if ev != nil {
		s.free = ev.next
		*ev = Event{at: at, seq: s.nextSeq, fn: fn, bg: s.bg}
	} else {
		ev = &Event{at: at, seq: s.nextSeq, fn: fn, bg: s.bg}
	}
	s.enqueue(ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
// Negative d is clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtArg is At for hot paths that would otherwise close over a single
// value: fn is a long-lived function (typically a method value bound
// once at construction) and arg is handed back to it when the event
// fires. Scheduling this way allocates nothing beyond the (recycled)
// Event — netsim's per-packet delivery timers are the motivating
// caller, which fire hundreds of times per simulated page load.
func (s *Scheduler) AtArg(at time.Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("simtime: AtArg called with nil callback")
	}
	if at < s.now {
		panic(fmt.Sprintf("simtime: event scheduled in the past: at=%v now=%v", at, s.now))
	}
	ev := s.free
	if ev != nil {
		s.free = ev.next
		*ev = Event{at: at, seq: s.nextSeq, fnA: fn, arg: arg, bg: s.bg}
	} else {
		ev = &Event{at: at, seq: s.nextSeq, fnA: fn, arg: arg, bg: s.bg}
	}
	s.enqueue(ev)
	return ev
}

// enqueue queues a new event under the next sequence number.
func (s *Scheduler) enqueue(ev *Event) {
	s.nextSeq++
	if !ev.bg {
		s.fg++
	}
	s.queue.push(ev)
}

// AfterArg is After's AtArg form.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) *Event {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now+d, fn, arg)
}

// Cancel removes a pending event. Cancelling an already-cancelled event is
// a no-op, so callers can cancel unconditionally in cleanups. A fired
// event's handle is dead (its struct may have been recycled into a new
// event); callers must clear stored handles inside the callback rather
// than cancel them afterwards.
func (s *Scheduler) Cancel(ev *Event) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	if ev.idx >= 0 {
		s.queue.remove(ev.idx)
		if !ev.bg {
			s.fg--
		}
	}
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event was run. It panics with *StallError
// when the event would break the stall rule — the error, not a hang, is
// the contract.
func (s *Scheduler) Step() bool {
	if s.interrupted {
		return false
	}
	for len(s.queue) > 0 {
		ev := s.queue.pop()
		if ev.dead {
			continue
		}
		if ev.at >= s.stallEnd {
			s.stallEnd = ev.at + stallWindow
			s.stallFrom = s.steps
		}
		if s.steps-s.stallFrom >= stallLimit {
			s.stallFrom = s.steps
			s.queue.push(ev)
			panic(&StallError{Steps: s.steps, Now: s.now})
		}
		s.steps++
		if s.steps%pollEvery == 0 && s.interrupt != nil && s.interrupt() {
			s.interrupted = true
			s.queue.push(ev)
			return false
		}
		// Past both push-backs: the event fires, so it leaves the
		// foreground count exactly once.
		if !ev.bg {
			s.fg--
		}
		ev.dead = true
		s.now = ev.at
		if s.stepHook != nil {
			s.stepHook(ev.at)
		}
		s.bg = ev.bg
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.fnA(ev.arg)
		}
		s.bg = false
		// Recycle only after the callback returns: a callback that reaches
		// its own stale handle (cancel-guarded cleanup paths) still sees a
		// dead, unpooled event and no-ops. The struct becomes live again
		// only when a later At re-arms it.
		ev.fn = nil
		ev.fnA = nil
		ev.arg = nil
		ev.next = s.free
		s.free = ev
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.guardReentry()
	defer func() { s.running = false }()
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (even if the queue still holds later events).
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.guardReentry()
	defer func() { s.running = false }()
	for {
		ev := s.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		if !s.Step() {
			// Interrupted: stop draining. The clock still advances to the
			// deadline below so collection sees a consistent end time.
			break
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunWhile executes events until cond reports false or the queue drains.
// cond is evaluated before each event.
func (s *Scheduler) RunWhile(cond func() bool) {
	s.guardReentry()
	defer func() { s.running = false }()
	for cond() && s.Step() {
	}
}

func (s *Scheduler) guardReentry() {
	if s.running {
		panic("simtime: re-entrant Run on the same Scheduler")
	}
	s.running = true
}

func (s *Scheduler) peek() *Event {
	for len(s.queue) > 0 {
		if ev := s.queue[0].ev; !ev.dead {
			return ev
		}
		s.queue.pop()
	}
	return nil
}

// eventHeap is a binary min-heap of pending events ordered by (at, seq).
// Each slot carries its key inline next to the *Event, so sifting compares
// keys without loading the Event, and sifts move a hole rather than
// swapping. Every placement writes the slot index back into Event.idx so
// Cancel can remove an event in O(log n). Keys are unique (seq never
// repeats among pending events), so any correct min-heap pops the same
// sequence.
type eventHeap []heapSlot

type heapSlot struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

func (a *heapSlot) before(b *heapSlot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, heapSlot{})
	h.up(len(*h)-1, heapSlot{at: ev.at, seq: ev.seq, ev: ev})
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() *Event {
	return h.remove(0)
}

// remove takes the event at slot i out of the heap and returns it with
// idx reset to -1.
func (h *eventHeap) remove(i int) *Event {
	q := *h
	n := len(q) - 1
	ev := q[i].ev
	last := q[n]
	q[n] = heapSlot{}
	q = q[:n]
	*h = q
	if i < n {
		if i > 0 && last.before(&q[(i-1)/2]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.idx = -1
	return ev
}

// up places x at hole i, moving the hole toward the root past every
// parent x sorts before.
func (h eventHeap) up(i int, x heapSlot) {
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.idx = i
		i = p
	}
	h[i] = x
	x.ev.idx = i
}

// down places x at hole i, moving the hole toward the leaves past every
// smaller child.
func (h eventHeap) down(i int, x heapSlot) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		h[i].ev.idx = i
		i = c
	}
	h[i] = x
	x.ev.idx = i
}
