package netsim

import (
	"time"

	"h2privacy/internal/simtime"
)

// Background is the payload marker for cross-traffic packets: they consume
// link capacity and queue space like real packets but carry no transport
// segment. Endpoints and taps ignore them (the type assertion to
// *tcpsim.Segment fails), exactly as a gateway's other flows are invisible
// to one connection's state but very visible to its queues.
type Background struct{}

// CrossTraffic injects Poisson background load onto a path — the
// uncontrolled "everything else" a real campus gateway carries, which the
// clean simulation otherwise lacks. Packets are sent in both directions.
// The generator runs as simtime background events, so its ticks and every
// link event its packets cause are background too.
type CrossTraffic struct {
	sched *simtime.Scheduler
	rng   *simtime.Rand
	path  *Path

	meanGap  time.Duration // mean inter-packet gap per direction
	size     int
	stopped  bool
	whenIdle bool // StopWhenIdle armed
	sent     int
	tickEv   func(any) // onTick bound once; rescheduled via AfterArg
}

// NewCrossTraffic builds a generator producing roughly rateBps of load in
// each direction using pktSize-byte packets (0 → 1200).
func NewCrossTraffic(sched *simtime.Scheduler, rng *simtime.Rand, path *Path, rateBps float64, pktSize int) *CrossTraffic {
	if pktSize <= 0 {
		pktSize = 1200
	}
	ct := &CrossTraffic{sched: sched, rng: rng, path: path, size: pktSize}
	ct.tickEv = ct.onTick
	if rateBps > 0 {
		gap := time.Duration(float64(pktSize*8) / rateBps * float64(time.Second))
		ct.meanGap = gap
	}
	return ct
}

// Start begins injecting until Stop (or forever within the simulation).
func (ct *CrossTraffic) Start() {
	if ct.meanGap <= 0 {
		return
	}
	ct.sched.Background(func() {
		ct.tick(ClientToServer)
		ct.tick(ServerToClient)
	})
}

// Stop halts injection (pending scheduled packets still fire their timers
// but send nothing).
func (ct *CrossTraffic) Stop() { ct.stopped = true }

// StopWhenIdle arms the generator to stop at its first tick that finds no
// foreground event pending (simtime.Scheduler.Busy). From then on only
// background events remain, and the endpoints, middlebox and taps ignore
// Background payloads, so no further packet could change what a flow
// does; packets already in flight still drain. Unarmed, the generator
// sends until Stop even on a path with no foreground work at all.
func (ct *CrossTraffic) StopWhenIdle() { ct.whenIdle = true }

// Stopped reports whether injection has halted, by Stop or at idle.
func (ct *CrossTraffic) Stopped() bool { return ct.stopped }

// Sent reports how many background packets were injected.
func (ct *CrossTraffic) Sent() int { return ct.sent }

func (ct *CrossTraffic) onTick(dir any) { ct.tick(dir.(Direction)) }

func (ct *CrossTraffic) tick(dir Direction) {
	if ct.whenIdle && !ct.sched.Busy() {
		ct.stopped = true
	}
	if ct.stopped {
		return
	}
	ct.path.Send(dir, ct.size, Background{})
	ct.sent++
	// AfterArg with a pre-bound method value: Direction values are tiny
	// ints, so boxing them into any stays allocation-free.
	ct.sched.AfterArg(ct.rng.Exponential(ct.meanGap), ct.tickEv, dir)
}
