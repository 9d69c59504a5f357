package core

import (
	"fmt"
	"sort"
	"time"

	"h2privacy/internal/adversary"
	"h2privacy/internal/capture"
	"h2privacy/internal/check"
	"h2privacy/internal/endpoint"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/netsim"
	"h2privacy/internal/perf"
	"h2privacy/internal/probe"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/website"
)

// FleetConfig switches a trial from one point-to-point path to the
// shared-bottleneck topology: N client–server pairs — flow 0 is the
// target pair the TrialConfig describes, flows 1..N-1 are decoy page
// loads against small generated sites — all multiplexed over one
// aggregation link with a FIFO or DRR discipline. The adversary sits on
// that link with a K-flow interference budget: at SelectAt it ranks every
// flow by capture-visible flowseq features and arms the attack on the top
// K only.
//
// Determinism contract: flow 0 consumes the exact RNG streams a
// standalone trial does (its assembly is the standalone assembly); each
// decoy draws from its own root RNG derived from (Seed, flow index), so
// adding or removing decoys never shifts another flow's stream; the
// bottleneck itself draws nothing. At N=1 with the default (mirrored)
// bottleneck the trial is byte-identical to a Fleet=nil trial, including
// under adversary throttling.
type FleetConfig struct {
	// N is the total flow count including the target. Must be >= 1.
	N int
	// Budget is K, the adversary's concurrent-interference cap. 0 means
	// the adversary can observe but never touch a flow.
	Budget int
	// Bottleneck configures the shared aggregation link. Zero-value
	// fields mirror the per-flow link: BandwidthBps defaults to the flow
	// link rate and QueueLimit to the flow link's queue limit × N (so a
	// one-flow fleet shares nothing and stays bit-identical).
	Bottleneck netsim.BottleneckConfig
	// SelectAt is when the adversary first scores flows — after the
	// head-of-page burst is typically visible. Default 350 ms. Ignored at
	// N=1: the single flow is armed at construction, exactly like a
	// standalone attacked trial.
	SelectAt time.Duration
	// SelectEvery re-scans the flows until the budget is armed or
	// SelectUntil passes: a fixed single-shot scan misses targets whose
	// big response happens to start late, so the middlebox keeps watching.
	// Defaults 150 ms / 2 s. Rescans draw no RNG.
	SelectEvery time.Duration
	SelectUntil time.Duration
	// MinScore is the arming floor on the per-request response-size score:
	// flows below it are never armed, so early scans don't burn budget
	// slots on decoy noise (decoy responses top out near 6 KB). Default
	// 8192; negative disables the floor.
	MinScore int
	// Stagger spaces decoy page-load starts: decoy i starts at i×Stagger.
	// Default 5 ms.
	Stagger time.Duration
}

func (fc *FleetConfig) withDefaults(link netsim.LinkConfig) FleetConfig {
	out := *fc
	if out.SelectAt == 0 {
		out.SelectAt = 350 * time.Millisecond
	}
	if out.SelectEvery == 0 {
		out.SelectEvery = 150 * time.Millisecond
	}
	if out.SelectUntil == 0 {
		out.SelectUntil = 2 * time.Second
	}
	if out.MinScore == 0 {
		out.MinScore = 8192
	} else if out.MinScore < 0 {
		out.MinScore = 0
	}
	if out.Stagger == 0 {
		out.Stagger = 5 * time.Millisecond
	}
	if out.Bottleneck.BandwidthBps == 0 {
		out.Bottleneck.BandwidthBps = link.BandwidthBps
	}
	if out.Bottleneck.QueueLimit == 0 {
		limit := link.QueueLimit
		if limit == 0 {
			limit = 256 << 10
		}
		out.Bottleneck.QueueLimit = limit * out.N
	}
	return out
}

// DecoyOutcome is one decoy flow's page-load fate — the collateral-damage
// raw material (compare against the same seed at Budget 0).
type DecoyOutcome struct {
	// Flow is the decoy's synthesized flow ID (capture.FleetFlowID).
	Flow string
	// LoadTime is the virtual time of the last completed object; 0 when
	// nothing completed.
	LoadTime time.Duration
	// Completed counts finished objects; Broken and Resets are the
	// browser's verdict and §IV-D reset-cycle count.
	Completed int
	Broken    bool
	Resets    int
	// Targeted reports whether the adversary armed its attack on this
	// decoy (a selection miss).
	Targeted bool
}

// FleetOutcome is the fleet topology's per-trial result, carried on
// TrialResult.Fleet.
type FleetOutcome struct {
	N          int
	Budget     int
	Discipline string
	// Selected are the flow indices the adversary armed, ascending.
	// TargetSelected reports whether flow 0 — the planted target — is
	// among them.
	Selected       []int
	TargetSelected bool
	// BudgetPeak is the high-water mark of concurrently-held budget slots.
	BudgetPeak int
	// Interventions totals the adversary's actions across every flow's
	// controller: drops + delayed GETs + jittered packets + throttles.
	// Exactly zero at Budget 0.
	Interventions int
	Decoys        []DecoyOutcome
	// AggC2S / AggS2C are the shared bottleneck's per-direction counters.
	AggC2S netsim.AggStats
	AggS2C netsim.AggStats
}

// CollateralStats is the attack's damage to flows it did not target,
// computed by pairing an attacked fleet trial against the Budget-0 trial
// at the same seed (FleetCollateral).
type CollateralStats struct {
	// Decoys is the paired decoy count; Inflated counts decoys whose page
	// load got slower under the attack.
	Decoys   int
	Inflated int
	// MeanInflationPct / MaxInflationPct summarize page-load-time
	// inflation across decoys completed in both runs.
	MeanInflationPct float64
	MaxInflationPct  float64
	// SpuriousResets counts extra decoy reset cycles the attack caused;
	// BrokenDelta counts decoy loads broken under attack but not at
	// baseline.
	SpuriousResets int
	BrokenDelta    int
}

// FleetCollateral pairs an attacked fleet trial with its same-seed
// Budget-0 baseline and measures what the attack did to the decoys. Both
// results must come from the same FleetConfig shape (same N); decoys pair
// by index.
func FleetCollateral(attacked, baseline *TrialResult) CollateralStats {
	var cs CollateralStats
	if attacked == nil || baseline == nil || attacked.Fleet == nil || baseline.Fleet == nil {
		return cs
	}
	n := len(attacked.Fleet.Decoys)
	if m := len(baseline.Fleet.Decoys); m < n {
		n = m
	}
	var sum float64
	var counted int
	for i := 0; i < n; i++ {
		a, b := attacked.Fleet.Decoys[i], baseline.Fleet.Decoys[i]
		cs.Decoys++
		if a.Resets > b.Resets {
			cs.SpuriousResets += a.Resets - b.Resets
		}
		if a.Broken && !b.Broken {
			cs.BrokenDelta++
		}
		if a.LoadTime > 0 && b.LoadTime > 0 {
			pct := (float64(a.LoadTime) - float64(b.LoadTime)) / float64(b.LoadTime) * 100
			sum += pct
			counted++
			if pct > 0 {
				cs.Inflated++
			}
			if pct > cs.MaxInflationPct {
				cs.MaxInflationPct = pct
			}
		}
	}
	if counted > 0 {
		cs.MeanInflationPct = sum / float64(counted)
	}
	return cs
}

// mixSeed derives decoy flow i's independent RNG root from the trial seed
// (splitmix64 finalizer): decoy streams never overlap the target's, and
// un-faulted flows consume identical streams no matter what the adversary
// does elsewhere.
func mixSeed(seed int64, flow int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(flow)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// decoyFlow is one assembled decoy pair.
type decoyFlow struct {
	path    *netsim.Path
	monitor *capture.Monitor
	ctrl    *adversary.Controller
	browser *endpoint.Browser
	probes  probe.Set
	id      string
}

// runFleetTrial assembles and runs one shared-bottleneck trial. Flow 0 is
// built by NewTestbed itself — the standalone assembly, so its RNG fork
// order is the standalone order by construction — then the bottleneck and
// the decoys attach around it.
func runFleetTrial(cfg TrialConfig) (*TrialResult, error) {
	fc := *cfg.Fleet
	if fc.N < 1 {
		return nil, fmt.Errorf("core: fleet N must be >= 1, got %d", fc.N)
	}
	if fc.Budget < 0 {
		return nil, fmt.Errorf("core: fleet budget must be >= 0, got %d", fc.Budget)
	}
	if cfg.Attack != nil {
		if err := cfg.Attack.Validate(); err != nil {
			return nil, err
		}
	}
	link := cfg.Link
	if link.BandwidthBps == 0 {
		link = DefaultLink()
	}
	fc = fc.withDefaults(link)
	duration := cfg.Duration
	if duration == 0 {
		duration = 120 * time.Second
	}

	// armInline: a one-flow fleet with budget arms the attack at
	// construction — the standalone shape — so N=1 results are
	// bit-identical to the single-pair tables at shared seeds. With more
	// flows (or no budget) the target config is stripped of every
	// interference knob; the selector arms chosen flows at SelectAt.
	armInline := fc.N == 1 && fc.Budget >= 1
	tcfg := cfg
	tcfg.Fleet = nil
	if !armInline {
		tcfg.Attack = nil
		tcfg.RequestSpacing = 0
		tcfg.RandomJitter = 0
		tcfg.ThrottleBps = 0
		tcfg.DropRate = 0
	}
	// Per-flow capture-visible features for target selection. The armed
	// analyzer (and its siblings) also lands every flow's rows in the
	// sweep collector; with features off, private analyzers feed the
	// selector only — they draw no RNG and schedule no events, so arming
	// features never changes selection or results.
	probes := cfg.probes()
	if probes.Flows == nil {
		probes.Flows = flowseq.New(0, nil)
	}
	sp := cfg.Perf.Start(perf.StageBuild)
	tb, err := newTestbed(tcfg, probes)
	if err != nil {
		sp.Stop()
		return nil, err
	}
	sched := tb.Sched

	bn, err := netsim.NewBottleneck(sched, fc.Bottleneck)
	if err != nil {
		sp.Stop()
		return nil, err
	}
	bn.Attach(tb.Path)

	flows := make([]*flowseq.Analyzer, fc.N)
	flows[0] = probes.Flows
	ctrls := make([]*adversary.Controller, fc.N)
	mons := make([]*capture.Monitor, fc.N)
	ctrls[0], mons[0] = tb.Controller, tb.Monitor

	decoys := make([]*decoyFlow, 0, fc.N-1)
	for i := 1; i < fc.N; i++ {
		d, derr := buildDecoy(sched, cfg, link, i, fc.Stagger, probes)
		if derr != nil {
			sp.Stop()
			return nil, derr
		}
		bn.Attach(d.path)
		flows[i], ctrls[i], mons[i] = d.probes.Flows, d.ctrl, d.monitor
		decoys = append(decoys, d)
	}

	budget := adversary.NewBudget(fc.Budget, cfg.Check)
	var selected []int
	drivers := make(map[int]*adversary.Driver)
	if armInline {
		budget.TryAcquire(0)
		selected = []int{0}
		if tb.Driver != nil {
			drivers[0] = tb.Driver
			tb.Driver.SetOnRelease(func() { budget.Release(0) })
		}
	} else if fc.Budget > 0 {
		// The middlebox watches the link from SelectAt, re-scoring every
		// SelectEvery until it has armed its whole budget or SelectUntil
		// passes. The MinScore floor keeps early scans from arming decoy
		// noise while the real target's response has not started yet; a
		// flow is armed at most once (degrading releases the budget slot
		// but never re-arms the same flow).
		tried := make(map[int]bool)
		armed := 0
		var scan func()
		scan = func() {
			for _, fi := range adversary.SelectTargets(flows, fc.Budget, fc.MinScore) {
				if armed >= fc.Budget {
					break
				}
				if tried[fi] || !budget.TryAcquire(fi) {
					continue
				}
				tried[fi] = true
				armed++
				selected = append(selected, fi)
				fi := fi
				if cfg.Attack != nil {
					drv, derr := adversary.NewDriver(sched, ctrls[fi], mons[fi], *cfg.Attack)
					if derr != nil {
						budget.Release(fi)
						continue
					}
					drv.SetOnRelease(func() { budget.Release(fi) })
					drivers[fi] = drv
					if fi == 0 {
						tb.Driver = drv
					}
					continue
				}
				applyKnobs(sched, &cfg, ctrls[fi])
			}
			if armed < fc.Budget && sched.Now()+fc.SelectEvery <= fc.SelectUntil {
				sched.At(sched.Now()+fc.SelectEvery, scan)
			}
		}
		sched.At(fc.SelectAt, scan)
	}
	sp.Stop()

	if cfg.Chaos == ChaosPanic {
		panic(chaosPanicValue(cfg.Seed))
	}
	rsp := cfg.Perf.Start(perf.StageRun)
	tb.Server.Start()
	tb.Browser.Start()
	sched.RunUntil(duration)
	rsp.Stop()
	if sched.Interrupted() {
		// Cooperatively cancelled mid-run, same contract as Testbed.Run:
		// no half-computed result.
		if cfg.Ctx != nil {
			return nil, cfg.Ctx.Err()
		}
		return nil, nil
	}

	res := tb.collectCapture()
	if cfg.Flows.Enabled() {
		for _, d := range decoys {
			d.probes.Flows.Finalize()
		}
	}

	out := &FleetOutcome{
		N:          fc.N,
		Budget:     fc.Budget,
		Discipline: fc.Bottleneck.Discipline.String(),
		BudgetPeak: budget.Peak(),
		AggC2S:     bn.Stats(netsim.ClientToServer),
		AggS2C:     bn.Stats(netsim.ServerToClient),
	}
	sort.Ints(selected)
	out.Selected = selected
	for _, fi := range selected {
		if fi == 0 {
			out.TargetSelected = true
		}
	}
	for _, c := range ctrls {
		st := c.Stats()
		out.Interventions += st.DroppedPkts + st.DelayedGETs + st.JitteredPkts + st.ThrottleEvents
	}
	for i, d := range decoys {
		r := d.browser.Result()
		var last time.Duration
		for _, at := range r.Completed {
			if at > last {
				last = at
			}
		}
		_, targeted := drivers[i+1]
		out.Decoys = append(out.Decoys, DecoyOutcome{
			Flow:      d.id,
			LoadTime:  last,
			Completed: len(r.Completed),
			Broken:    r.Broken,
			Resets:    r.Resets,
			Targeted:  targeted,
		})
	}
	res.Fleet = out

	if ck := cfg.Check; ck.Enabled() {
		csp := cfg.Perf.Start(perf.StageCheck)
		// Per-flow conservation already accumulated in the link shadows;
		// now pin the reported per-flow sums and the aggregate against
		// them, per direction, then run the end-of-trial checks.
		for _, dir := range []netsim.Direction{netsim.ClientToServer, netsim.ServerToClient} {
			d := uint8(check.DirC2S)
			if dir == netsim.ServerToClient {
				d = check.DirS2C
			}
			var sum netsim.LinkStats
			addStats(&sum, tb.Path.Link(dir).Stats())
			for _, df := range decoys {
				addStats(&sum, df.path.Link(dir).Stats())
			}
			ck.LinkStatsFinal(d, sum.Sent, sum.Delivered, sum.Duplicated,
				sum.DroppedLoss, sum.DroppedPolicy, sum.DroppedQueue, sum.DroppedFault,
				sum.BytesDelivered)
			ast := bn.Stats(dir)
			ck.AggStatsFinal(d, ast.Forwarded, ast.Bytes, ast.DroppedQueue)
		}
		res.CheckViolations = ck.Finalize()
		csp.Stop()
	}
	if !cfg.DeferMetrics {
		psp := cfg.Perf.Start(perf.StagePublish)
		PublishTrialMetrics(cfg.Metrics, res)
		psp.Stop()
	}
	return res, nil
}

// addStats accumulates per-flow link counters for the aggregate
// conservation check.
func addStats(sum *netsim.LinkStats, st netsim.LinkStats) {
	sum.Sent += st.Sent
	sum.Delivered += st.Delivered
	sum.Duplicated += st.Duplicated
	sum.DroppedLoss += st.DroppedLoss
	sum.DroppedPolicy += st.DroppedPolicy
	sum.DroppedQueue += st.DroppedQueue
	sum.DroppedFault += st.DroppedFault
	sum.BytesDelivered += st.BytesDelivered
}

// buildDecoy assembles decoy flow i against the shared scheduler with the
// target's assembly: its own path (attached to the bottleneck by the
// caller), monitor, controller, TCP pair, generated decoy site and a full
// page-load browser — a real competing flow, not a traffic knob.
// Everything draws from the decoy's own root RNG (mixSeed) in the
// standalone fork order. Decoys are checked and analyzed like the target
// but never traced: each gets its own scope of the trial's checker and a
// sibling of the target's analyzer (same trial index and collector).
func buildDecoy(sched *simtime.Scheduler, cfg TrialConfig, link netsim.LinkConfig, i int, stagger time.Duration, target probe.Set) (*decoyFlow, error) {
	root := simtime.NewRand(mixSeed(cfg.Seed, i))
	id := capture.FleetFlowID(i)
	probes := probe.Set{Check: target.Check.Flow(id), Flows: target.Flows.Sibling(id), Metrics: target.Metrics}
	path, mon, ctrl, err := newFlowNet(sched, root, link, probes)
	if err != nil {
		return nil, fmt.Errorf("core: fleet decoy %d %w", i, err)
	}
	tcp := cfg.TCP
	if cfg.Pool != nil {
		tcp.Pool = cfg.Pool
	}
	pair, err := tcpsim.NewPair(sched, root.Fork(), path, tcp)
	if err != nil {
		return nil, fmt.Errorf("core: fleet decoy %d tcp: %w", i, err)
	}
	site := website.DecoySite(i)
	plan, err := site.SequentialPlan()
	if err != nil {
		return nil, fmt.Errorf("core: fleet decoy %d plan: %w", i, err)
	}
	scfg, bcfg := cfg.Server, cfg.Browser
	scfg.PushEmblems, bcfg.AcceptPush = false, false
	srv, brw, err := newFlowEnds(sched, root, pair, site, plan, scfg, bcfg)
	if err != nil {
		return nil, fmt.Errorf("core: fleet decoy %d %w", i, err)
	}
	sched.At(time.Duration(i)*stagger, func() {
		srv.Start()
		brw.Start()
	})
	return &decoyFlow{path: path, monitor: mon, ctrl: ctrl, browser: brw, probes: probes, id: id}, nil
}

// applyKnobs arms the single-parameter interference knobs on one
// selected flow's controller — the fleet analogue of the standalone
// single-knob studies, applied at selection time instead of t=0.
func applyKnobs(sched *simtime.Scheduler, cfg *TrialConfig, ctrl *adversary.Controller) {
	if cfg.RequestSpacing > 0 {
		ctrl.SetRequestSpacing(cfg.RequestSpacing)
	}
	if cfg.RandomJitter > 0 {
		ctrl.SetRandomJitter(netsim.ClientToServer, cfg.RandomJitter)
		ctrl.SetRandomJitter(netsim.ServerToClient, cfg.RandomJitter)
	}
	if cfg.ThrottleBps > 0 {
		ctrl.Throttle(cfg.ThrottleBps)
	}
	if cfg.DropRate > 0 && cfg.DropDuration > 0 {
		ctrl.DropServerData(cfg.DropRate, cfg.DropRate, cfg.DropDuration)
	}
}
