package main

import (
	"fmt"
	"sort"
	"time"

	"h2privacy/internal/capture"
	"h2privacy/internal/core"
	"h2privacy/internal/h2"
	"h2privacy/internal/hpack"
	"h2privacy/internal/netsim"
	"h2privacy/internal/predict"
	"h2privacy/internal/simtime"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
	"h2privacy/internal/website"
)

// Kernels time calls into one module's public API on one traced trial's
// own inputs. Each returns how many units of its layer's work it did, so
// that ns per unit can be multiplied back by the trial's counters. A
// kernel's cost is its module's own plus whatever of the modules below it
// the module drives (the tcpsim kernel runs simtime and netsim too).

// kernelInput is what one traced trial hands the kernels.
type kernelInput struct {
	events    int      // scheduler events of the trial
	depth     int      // mean event-queue depth seen by the trial's packets
	packets   int      // packets offered to the trial's links
	tcpBytes  [2]int64 // payload sent: [0] by the client, [1] by the server
	records   []capture.RecordEvent
	packetLog []capture.PacketRecord
	// h2Sent are the frames each side sent: [0] browser, [1] server.
	h2Sent    [2]map[h2.FrameType]int
	dataBytes [2]int64
	site      *website.Site
	plan      *website.Plan
}

// timeKernel runs fn until minDur has passed (at least once) and returns
// the mean wall time per unit and the units of one call.
func timeKernel(minDur time.Duration, fn func() (int, error)) (nsPerUnit float64, units int, err error) {
	var total int
	start := time.Now()
	for total == 0 || time.Since(start) < minDur {
		n, err := fn()
		if err != nil {
			return 0, 0, err
		}
		if n == 0 {
			return 0, 0, nil
		}
		units = n
		total += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(total), units, nil
}

// kernelGaps are the event spacings of the scheduler kernel: 1 µs to 2 ms,
// drawn once so every run schedules the same pattern.
var kernelGaps = func() []time.Duration {
	r := simtime.NewRand(1)
	g := make([]time.Duration, 1024)
	for i := range g {
		g[i] = r.Uniform(time.Microsecond, 2*time.Millisecond)
	}
	return g
}()

// simtimeKernel fires exactly events events on a fresh scheduler through
// AtArg/AfterArg and Run, keeping depth events queued while it can.
func simtimeKernel(events, depth int) int {
	if depth < 1 {
		depth = 1
	}
	s := simtime.NewScheduler()
	scheduled, fired := 0, 0
	var fire func(any)
	fire = func(any) {
		fired++
		if scheduled < events {
			s.AfterArg(kernelGaps[scheduled%len(kernelGaps)], fire, nil)
			scheduled++
		}
	}
	for scheduled < depth && scheduled < events {
		s.AtArg(kernelGaps[scheduled%len(kernelGaps)], fire, nil)
		scheduled++
	}
	s.Run()
	return fired
}

// forkKernel derives n child generators from one root, the way a testbed
// seeds its components.
func forkKernel(n int) int {
	root := simtime.NewRand(1)
	for i := 0; i < n; i++ {
		root.Fork()
	}
	return n
}

// countTap stops a cross-traffic generator once it has offered n packets.
type countTap struct {
	n, seen int
	ct      *netsim.CrossTraffic
}

func (t *countTap) Observe(netsim.PacketEvent) {
	t.seen++
	if t.seen == t.n {
		t.ct.Stop()
	}
}

// netsimKernel pushes exactly packets background packets through a bare
// testbed path (no endpoints) and returns how many the links were offered.
func netsimKernel(packets int) (int, error) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: core.DefaultLink()})
	if err != nil {
		return 0, err
	}
	path.Connect(func(*netsim.Packet) {}, func(*netsim.Packet) {})
	ct := netsim.NewCrossTraffic(sched, rng.Fork(), path, crossTrafficBps, 0)
	path.AddTap(&countTap{n: packets, ct: ct})
	sched.At(0, ct.Start)
	sched.Run()
	return path.Link(netsim.ClientToServer).Stats().Sent + path.Link(netsim.ServerToClient).Stats().Sent, nil
}

// tcpKernel moves the trial's bytes, each direction in bulk, over a fresh
// TCP pair on the default path. It returns the segments sent and the bytes
// delivered.
func tcpKernel(bytes [2]int64) (segments int, delivered int64, err error) {
	sched := simtime.NewScheduler()
	rng := simtime.NewRand(1)
	path, err := netsim.NewPath(sched, rng.Fork(), netsim.PathConfig{Link: core.DefaultLink()})
	if err != nil {
		return 0, 0, err
	}
	pair, err := tcpsim.NewPair(sched, rng.Fork(), path, tcpsim.Config{})
	if err != nil {
		return 0, 0, err
	}
	pair.Open()
	if err := pair.Client.Write(make([]byte, bytes[0])); err != nil {
		return 0, 0, err
	}
	if err := pair.Server.Write(make([]byte, bytes[1])); err != nil {
		return 0, 0, err
	}
	sched.RunUntil(120 * time.Second)
	c, s := pair.Client.Stats(), pair.Server.Stats()
	return c.SegmentsSent + s.SegmentsSent, c.BytesDelivered + s.BytesDelivered, nil
}

// tlsKernel seals one record of each observed size on one endpoint and
// opens it on the other, returning the records opened.
func tlsKernel(records []capture.RecordEvent) (int, error) {
	var client, server *tlsrec.Conn
	client = tlsrec.NewConn(true, [32]byte{1}, func(b []byte) { _ = server.Feed(b) })
	server = tlsrec.NewConn(false, [32]byte{2}, func(b []byte) { _ = client.Feed(b) })
	opened := 0
	count := func(tlsrec.ContentType, []byte) { opened++ }
	client.OnRecord(count)
	server.OnRecord(count)
	client.Start()
	if !client.Established() || !server.Established() {
		return 0, fmt.Errorf("tlsrec kernel: handshake did not complete")
	}
	buf := make([]byte, tlsrec.MaxPlaintext)
	for _, r := range records {
		n := r.WireLen - tlsrec.HeaderSize - tlsrec.SealOverhead
		if n < 1 {
			n = 1
		}
		if n > len(buf) {
			n = len(buf)
		}
		from := client
		if r.Dir == netsim.ServerToClient {
			from = server
		}
		if err := from.Send(tlsrec.ContentApplicationData, buf[:n]); err != nil {
			return 0, err
		}
	}
	if err := client.Err(); err != nil {
		return 0, err
	}
	if err := server.Err(); err != nil {
		return 0, err
	}
	return opened, nil
}

// frameTypes orders the frame mix so every pass appends the same stream.
func frameTypes(m map[h2.FrameType]int) []h2.FrameType {
	ts := make([]h2.FrameType, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// h2Kernel appends each side's frame mix with the Append* encoders and
// parses it back with a FrameReader, returning the frames parsed.
func h2Kernel(sent [2]map[h2.FrameType]int, dataBytes [2]int64) (int, error) {
	frag := make([]byte, 24)
	parsed := 0
	var buf []byte
	for side := range sent {
		payload := make([]byte, int(ratio(float64(dataBytes[side]), float64(sent[side][h2.FrameData]))))
		r := h2.NewFrameReader()
		for _, t := range frameTypes(sent[side]) {
			for i := 0; i < sent[side][t]; i++ {
				buf = appendFrame(buf[:0], t, payload, frag)
				r.Feed(buf)
				for {
					f, err := r.Next()
					if err != nil {
						return 0, fmt.Errorf("h2 kernel: %v frame: %w", t, err)
					}
					if f == nil {
						break
					}
					parsed++
				}
			}
		}
	}
	return parsed, nil
}

func appendFrame(dst []byte, t h2.FrameType, payload, frag []byte) []byte {
	switch t {
	case h2.FrameData:
		return h2.AppendData(dst, 1, payload, false, 0)
	case h2.FrameHeaders:
		return h2.AppendHeaders(dst, 1, frag, false, true, h2.PriorityParam{})
	case h2.FramePriority:
		return h2.AppendPriority(dst, 1, h2.PriorityParam{Weight: 15})
	case h2.FrameRSTStream:
		return h2.AppendRSTStream(dst, 1, h2.ErrCodeNo)
	case h2.FrameSettings:
		return h2.AppendSettings(dst, nil)
	case h2.FramePushPromise:
		return h2.AppendPushPromise(dst, 1, 2, frag, true)
	case h2.FramePing:
		return h2.AppendPing(dst, false, [8]byte{})
	case h2.FrameGoAway:
		return h2.AppendGoAway(dst, 1, h2.ErrCodeNo, nil)
	case h2.FrameWindowUpdate:
		return h2.AppendWindowUpdate(dst, 0, 65535)
	default:
		return h2.AppendContinuation(dst, 1, frag, true)
	}
}

// headerLists are the page's request and response header lists, in plan
// order, as the browser and server send them.
func headerLists(site *website.Site, plan *website.Plan) (req, resp [][]hpack.HeaderField) {
	for _, st := range plan.Steps {
		o := site.Object(st.ObjectID)
		req = append(req, []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: site.Host},
			{Name: ":path", Value: o.Path},
		})
		resp = append(resp, []hpack.HeaderField{
			{Name: ":status", Value: "200"},
			{Name: "content-type", Value: o.Type},
			{Name: "content-length", Value: fmt.Sprint(o.Size)},
		})
	}
	return req, resp
}

// hpackKernel encodes and decodes blocks[0] request blocks and blocks[1]
// response blocks, cycling through the page's header lists, each side with
// its own dynamic tables. It returns the blocks decoded.
func hpackKernel(site *website.Site, plan *website.Plan, blocks [2]int) (int, error) {
	req, resp := headerLists(site, plan)
	decoded := 0
	var buf []byte
	for side, lists := range [2][][]hpack.HeaderField{req, resp} {
		enc, dec := hpack.NewEncoder(4096), hpack.NewDecoder(4096)
		for i := 0; i < blocks[side]; i++ {
			buf = enc.Encode(buf[:0], lists[i%len(lists)])
			if _, err := dec.Decode(buf); err != nil {
				return 0, fmt.Errorf("hpack kernel: %w", err)
			}
			decoded++
		}
	}
	return decoded, nil
}

// websiteKernel generates the body of every object the plan requests and
// returns the bytes generated.
func websiteKernel(site *website.Site, plan *website.Plan) int {
	n := 0
	for _, st := range plan.Steps {
		n += len(site.Body(site.Object(st.ObjectID)))
	}
	return n
}

// captureKernel replays the trial's packets into a fresh monitor and
// returns the packets observed and the TLS records it reassembled.
func captureKernel(events []netsim.PacketEvent) (packets, records int) {
	m := capture.NewMonitor()
	for _, ev := range events {
		m.Observe(ev)
	}
	return len(events), len(m.Records())
}

// replayEvents turns a monitor's packet log back into tap events.
func replayEvents(log []capture.PacketRecord) []netsim.PacketEvent {
	evs := make([]netsim.PacketEvent, len(log))
	for i, r := range log {
		evs[i] = netsim.PacketEvent{Now: r.Time, Action: r.Action,
			Pkt: &netsim.Packet{ID: uint64(i), Dir: r.Dir, Size: r.Seg.WireSize(), Payload: r.Seg, SentAt: r.Time}}
	}
	return evs
}

// predictKernel runs the predictor over the trial's records: burst
// segmentation, object matching and sequence inference. It returns the
// records analyzed.
func predictKernel(site *website.Site, plan *website.Plan, records []capture.RecordEvent) int {
	a := predict.NewAnalyzer(site.SizeToIdentity(), predict.Config{})
	bursts := a.Bursts(records)
	a.MatchedObjects(bursts)
	a.InferSequence(bursts, plan.EmblemRequestOrder())
	return len(records)
}

// kernelCosts are the per-unit costs the kernels measured, in ns.
type kernelCosts struct {
	event, fork, packet, segment, record, frame, block, bodyByte, capturePacket, predictRecord float64
	// bodyBytes and blocks are the units one pass of the website and hpack
	// kernels covered, for attributing run time.
	bodyBytes, blocks int
}

// runKernels times every kernel on in, each for at least minDur.
func runKernels(in kernelInput, minDur time.Duration) (kernelCosts, error) {
	var k kernelCosts
	var err error
	must := func(f func() int) func() (int, error) { return func() (int, error) { return f(), nil } }
	if k.event, _, err = timeKernel(minDur, must(func() int { return simtimeKernel(in.events, in.depth) })); err != nil {
		return k, err
	}
	if k.fork, _, err = timeKernel(minDur, must(func() int { return forkKernel(4096) })); err != nil {
		return k, err
	}
	if k.packet, _, err = timeKernel(minDur, func() (int, error) { return netsimKernel(in.packets) }); err != nil {
		return k, err
	}
	if k.segment, _, err = timeKernel(minDur, func() (int, error) {
		n, _, err := tcpKernel(in.tcpBytes)
		return n, err
	}); err != nil {
		return k, err
	}
	if k.record, _, err = timeKernel(minDur, func() (int, error) { return tlsKernel(in.records) }); err != nil {
		return k, err
	}
	if k.frame, _, err = timeKernel(minDur, func() (int, error) { return h2Kernel(in.h2Sent, in.dataBytes) }); err != nil {
		return k, err
	}
	blocks := [2]int{in.h2Sent[0][h2.FrameHeaders], in.h2Sent[1][h2.FrameHeaders] + in.h2Sent[1][h2.FramePushPromise]}
	if k.block, k.blocks, err = timeKernel(minDur, func() (int, error) { return hpackKernel(in.site, in.plan, blocks) }); err != nil {
		return k, err
	}
	if k.bodyByte, k.bodyBytes, err = timeKernel(minDur, must(func() int { return websiteKernel(in.site, in.plan) })); err != nil {
		return k, err
	}
	evs := replayEvents(in.packetLog)
	if k.capturePacket, _, err = timeKernel(minDur, must(func() int {
		n, _ := captureKernel(evs)
		return n
	})); err != nil {
		return k, err
	}
	k.predictRecord, _, err = timeKernel(minDur, must(func() int { return predictKernel(in.site, in.plan, in.records) }))
	return k, err
}
