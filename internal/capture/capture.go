// Package capture implements the adversary's traffic monitor (the tshark
// component of the paper's §V setup): a passive tap on the compromised
// gateway that reassembles each direction's TCP byte stream, parses TLS
// record headers (type and length — never payload), classifies
// client→server application records as GET requests by size (the paper's
// `ssl.record.content_type==23` filter), and logs per-packet metadata
// including retransmissions. Everything here uses only information a real
// on-path device has.
package capture

import (
	"slices"
	"time"

	"h2privacy/internal/check"
	"h2privacy/internal/flowseq"
	"h2privacy/internal/netsim"
	"h2privacy/internal/probe"
	"h2privacy/internal/tcpsim"
	"h2privacy/internal/tlsrec"
	"h2privacy/internal/trace"
)

// GET classification gate: client→server application records whose
// on-stream size falls in this range are counted as GETs. HPACK-compressed
// request HEADERS records land in it; the client's WINDOW_UPDATE (42-byte
// record), SETTINGS ACK and RST_STREAM records fall below it.
const (
	getMinRecordLen = 50
	getMaxRecordLen = 260
)

// setupRecordSkip is how many leading client→server application-data
// records are connection setup rather than requests: the HTTP/2 preface
// and the client SETTINGS frame. A protocol-aware adversary discounts
// them when counting GETs.
const setupRecordSkip = 2

// GETClassifier classifies raw client→server segment payloads without
// reassembly — the middlebox's real-time path (the jitter processor must
// decide per packet). It greedily parses record headers from the segment
// start (records rarely straddle segments in this workload: the client
// seals each frame as one record) and falls back to a whole-payload size
// gate when the bytes do not parse as records.
//
// Parsing from the first byte means a segment that starts mid-record (a
// continuation or a resegmented retransmission) has ciphertext read as a
// record header. ParseHeader checks neither type nor version, so whenever
// those five bytes carry a length that fits the segment, the classifier
// walks "records" cut from ciphertext instead of taking the size gate.
// The toy keystream's bytes therefore reach the GET count and, through
// the jitter decisions built on it, attack outcomes: a keystream swap is
// an output change even though every record keeps its size.
type GETClassifier struct {
	seenAppData int
}

// Count returns how many GET-classified records the payload carries.
func (g *GETClassifier) Count(payload []byte) int {
	if len(payload) == 0 {
		return 0
	}
	n := 0
	rest := payload
	parsedAny := false
	for {
		hdr, ok := tlsrec.ParseHeader(rest)
		if !ok || tlsrec.HeaderSize+hdr.Length > len(rest) {
			break
		}
		parsedAny = true
		if hdr.Type == tlsrec.ContentApplicationData {
			g.seenAppData++
			wire := tlsrec.HeaderSize + hdr.Length
			if g.seenAppData > setupRecordSkip && wire >= getMinRecordLen && wire <= getMaxRecordLen {
				n++
			}
		}
		rest = rest[tlsrec.HeaderSize+hdr.Length:]
		if len(rest) == 0 {
			break
		}
	}
	if !parsedAny {
		// Unaligned continuation bytes: gate on the whole payload.
		g.seenAppData++
		if g.seenAppData > setupRecordSkip && len(payload) >= getMinRecordLen && len(payload) <= getMaxRecordLen {
			return 1
		}
	}
	return n
}

// RecordEvent is one parsed TLS record observed on the path.
type RecordEvent struct {
	// Time is when the packet completing the record crossed the tap.
	Time time.Duration
	Dir  netsim.Direction
	Type tlsrec.ContentType
	// WireLen is the record's on-stream size (header + sealed payload).
	WireLen int
	// PlainLen is the inferred plaintext length (sealed length minus the
	// constant AEAD overhead); zero for handshake records.
	PlainLen int
	// IsGET marks client→server records classified as GET requests.
	IsGET bool
	// IsControl marks client→server application records too small to be
	// GETs: WINDOW_UPDATE, SETTINGS ACK and RST_STREAM records. The
	// adaptive driver's clean-slate watchdog consumes these — during a
	// starvation window the client sends almost no flow-control updates,
	// so a burst of small control records is the browser resetting.
	IsControl bool
	// Tainted marks records whose bytes arrived (at least partly) via
	// TCP-retransmitted segments — tshark's tcp.analysis.retransmission.
	// The predictor excludes them: retransmitted bytes are replays of
	// traffic already accounted for, not fresh object data.
	Tainted bool
}

// PacketStats aggregates per-direction packet-level observations.
type PacketStats struct {
	Packets       int
	PayloadBytes  int64
	Retransmits   int // segments flagged as TCP retransmissions
	DroppedPolicy int // packets the adversary itself dropped
	DroppedOther  int
}

// Monitor is the passive tap. Install it on a netsim.Path with AddTap.
type Monitor struct {
	records      []RecordEvent
	stats        map[netsim.Direction]*PacketStats
	streams      map[netsim.Direction]*dirStream
	getCount     int
	c2sAppCount  int
	controlCount int
	lastS2CData  time.Duration
	anyS2CData   bool
	onGET        func(count int, ev RecordEvent)
	onControl    func(count int, ev RecordEvent)
	onTeardown   func(now time.Duration, dir netsim.Direction)
	logPackets   bool
	packets      []PacketRecord

	tr    *trace.Tracer
	ctGET *trace.Counter
	fl    *flowseq.Analyzer
}

var _ netsim.Tap = (*Monitor)(nil)

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		stats: map[netsim.Direction]*PacketStats{
			netsim.ClientToServer: {},
			netsim.ServerToClient: {},
		},
		streams: map[netsim.Direction]*dirStream{
			netsim.ClientToServer: newDirStream(),
			netsim.ServerToClient: newDirStream(),
		},
	}
}

// OnGET registers a callback fired for each newly counted GET (the attack
// driver's phase trigger).
func (m *Monitor) OnGET(fn func(count int, ev RecordEvent)) { m.onGET = fn }

// OnControl registers a callback fired for each client→server control
// record (small post-setup application record: WINDOW_UPDATE, RST_STREAM).
// This is the adaptive driver's RST feed.
func (m *Monitor) OnControl(fn func(count int, ev RecordEvent)) { m.onControl = fn }

// OnTeardown registers a callback fired when a TCP RST segment crosses the
// tap in either direction — the connection is being torn down abortively
// and the attack should degrade to passive observation.
func (m *Monitor) OnTeardown(fn func(now time.Duration, dir netsim.Direction)) { m.onTeardown = fn }

// SetProbes arms the flow's probes on the monitor: Trace receives each
// GET-classified record; Flows receives every parsed record (wire-side
// burst tables and the clean-slate span detector); Check verifies both
// direction streams' reassembly — taint arrays stay parallel to the byte
// buffer, the reassembled stream has no gaps, and parsed records exactly
// partition the appended bytes. The zero set keeps the tap free.
func (m *Monitor) SetProbes(p probe.Set) {
	m.tr, m.fl = p.Trace, p.Flows
	m.ctGET = p.Trace.Counter(trace.LayerMonitor, "gets")
	m.streams[netsim.ClientToServer].ck = p.Check
	m.streams[netsim.ClientToServer].ckDir = check.DirC2S
	m.streams[netsim.ServerToClient].ck = p.Check
	m.streams[netsim.ServerToClient].ckDir = check.DirS2C
}

// Records returns all parsed record events in observation order.
func (m *Monitor) Records() []RecordEvent { return m.records }

// GETCount reports the GETs counted so far.
func (m *Monitor) GETCount() int { return m.getCount }

// ControlCount reports client→server control records counted so far.
func (m *Monitor) ControlCount() int { return m.controlCount }

// LastServerDataAt reports when the last substantial server→client
// payload packet was forwarded (not dropped) past the tap, and whether
// one has been seen at all. Control records arriving long after this are
// sent by a starved client — the reset-detection context.
func (m *Monitor) LastServerDataAt() (time.Duration, bool) { return m.lastS2CData, m.anyS2CData }

// Stats returns the per-direction packet counters.
func (m *Monitor) Stats(dir netsim.Direction) PacketStats { return *m.stats[dir] }

// TotalRetransmits reports retransmitted segments seen in both directions.
func (m *Monitor) TotalRetransmits() int {
	return m.stats[netsim.ClientToServer].Retransmits + m.stats[netsim.ServerToClient].Retransmits
}

// Observe implements netsim.Tap.
func (m *Monitor) Observe(ev netsim.PacketEvent) {
	seg, ok := ev.Pkt.Payload.(*tcpsim.Segment)
	if !ok {
		return
	}
	st := m.stats[ev.Pkt.Dir]
	st.Packets++
	st.PayloadBytes += int64(len(seg.Payload))
	if seg.Retransmit {
		st.Retransmits++
	}
	if m.logPackets {
		// Deep-copy the segment: with trial pooling armed, the original is
		// zeroed and reused as soon as its packet's last delivery fires,
		// while the packet log must outlive the whole trial.
		cp := *seg
		cp.Payload = append([]byte(nil), seg.Payload...)
		m.packets = append(m.packets, PacketRecord{
			Time: ev.Now, Dir: ev.Pkt.Dir, Seg: &cp, Action: ev.Action,
		})
	}
	switch ev.Action {
	case netsim.ActionDroppedPolicy:
		st.DroppedPolicy++
		return // never reaches the receiver: exclude from reassembly
	case netsim.ActionDroppedLoss, netsim.ActionDroppedQueue, netsim.ActionDroppedFault:
		st.DroppedOther++
		return
	}
	if seg.Flags.Has(tcpsim.FlagRST) && m.onTeardown != nil {
		m.onTeardown(ev.Now, ev.Pkt.Dir)
	}
	if ev.Pkt.Dir == netsim.ServerToClient && len(seg.Payload) >= 100 {
		m.lastS2CData = ev.Now
		m.anyS2CData = true
	}
	// Reassemble the forwarded byte stream and parse record headers.
	ds := m.streams[ev.Pkt.Dir]
	for _, rec := range ds.push(seg) {
		rec.Time = ev.Now
		rec.Dir = ev.Pkt.Dir
		if rec.Dir == netsim.ClientToServer && rec.Type == tlsrec.ContentApplicationData {
			m.c2sAppCount++
			if m.c2sAppCount > setupRecordSkip {
				switch {
				case rec.WireLen >= getMinRecordLen && rec.WireLen <= getMaxRecordLen:
					rec.IsGET = true
					m.getCount++
				case rec.WireLen < getMinRecordLen:
					rec.IsControl = true
					m.controlCount++
				}
			}
		}
		m.records = append(m.records, rec)
		if m.fl.Enabled() {
			m.fl.Record(rec.Dir == netsim.ClientToServer, rec.WireLen, rec.PlainLen,
				rec.IsGET, rec.IsControl, rec.Tainted)
		}
		if rec.IsGET {
			m.ctGET.Inc()
			if m.tr.Enabled() {
				m.tr.Emit(trace.LayerMonitor, "get",
					trace.Num("count", int64(m.getCount)), trace.Num("wire_len", int64(rec.WireLen)))
			}
			if m.onGET != nil {
				m.onGET(m.getCount, rec)
			}
		}
		if rec.IsControl && m.onControl != nil {
			m.onControl(m.controlCount, rec)
		}
	}
}

// dirStream reassembles one direction's TCP stream (sequence-based, with
// out-of-order buffering and retransmission dedup) and incrementally cuts
// TLS records out of it, tracking per-byte retransmission taint.
type dirStream struct {
	synSeen bool
	nextSeq uint64
	ooo     map[uint64]oooChunk
	buf     []byte // reassembled record bytes; [off:] is still unparsed
	taint   []bool // parallel to buf: byte arrived via a retransmission
	off     int    // parsed prefix of buf/taint, reclaimed on append

	evs []RecordEvent // parse() scratch, reused per push

	ck    *check.Checker
	ckDir uint8
}

type oooChunk struct {
	data    []byte
	tainted bool
}

func newDirStream() *dirStream {
	return &dirStream{ooo: make(map[uint64]oooChunk)}
}

// push ingests a segment and returns any records completed by it.
func (d *dirStream) push(seg *tcpsim.Segment) []RecordEvent {
	if seg.Flags.Has(tcpsim.FlagSYN) {
		d.synSeen = true
		d.nextSeq = seg.Seq + 1
		return nil
	}
	if !d.synSeen || len(seg.Payload) == 0 {
		return nil
	}
	d.ingest(seg.Seq, seg.Payload, seg.Retransmit)
	return d.parse()
}

func (d *dirStream) ingest(seq uint64, payload []byte, tainted bool) {
	end := seq + uint64(len(payload))
	switch {
	case end <= d.nextSeq:
		return // pure duplicate of delivered bytes
	case seq <= d.nextSeq:
		fresh := payload[d.nextSeq-seq:]
		d.append(fresh, tainted)
		d.drain()
	default:
		if _, ok := d.ooo[seq]; !ok {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			d.ooo[seq] = oooChunk{data: cp, tainted: tainted}
		}
	}
}

func (d *dirStream) append(fresh []byte, tainted bool) {
	// Reclaim the parsed prefix first: reslicing forward in parse() would
	// strand the consumed capacity and reallocate every buffer cycle.
	if d.off > 0 {
		n := copy(d.buf, d.buf[d.off:])
		d.buf = d.buf[:n]
		copy(d.taint, d.taint[d.off:])
		d.taint = d.taint[:n]
		d.off = 0
	}
	d.buf = append(d.buf, fresh...)
	// Bulk-extend the taint array instead of one append per byte; recycled
	// capacity may hold stale flags, so every new slot is set explicitly.
	old := len(d.taint)
	d.taint = slices.Grow(d.taint, len(fresh))[:old+len(fresh)]
	for i := old; i < len(d.taint); i++ {
		d.taint[i] = tainted
	}
	d.nextSeq += uint64(len(fresh))
	if d.ck.Enabled() {
		d.ck.CaptureAppend(d.ckDir, len(fresh), len(d.buf)-d.off, len(d.taint)-d.off, d.nextSeq)
	}
}

func (d *dirStream) drain() {
	// Apply stored chunks lowest-seq first. When one in-order fill makes
	// several overlapping out-of-order chunks applicable at once, the chunk
	// that supplies an overlapped byte decides its taint flag — so the
	// application order must not depend on map iteration order, or two
	// runs of the same trial can taint the same record differently and the
	// adversary's record-driven decisions diverge.
	for len(d.ooo) > 0 {
		var low uint64
		found := false
		for seq := range d.ooo {
			if !found || seq < low {
				low, found = seq, true
			}
		}
		if low > d.nextSeq {
			return // gap before the lowest chunk: nothing applicable
		}
		chunk := d.ooo[low]
		delete(d.ooo, low)
		if end := low + uint64(len(chunk.data)); end > d.nextSeq {
			d.append(chunk.data[d.nextSeq-low:], chunk.tainted)
		}
	}
}

// parse cuts complete TLS records off the front of buf. The returned slice
// is scratch reused by the next push; the caller consumes it synchronously.
func (d *dirStream) parse() []RecordEvent {
	out := d.evs[:0]
	for {
		rest := d.buf[d.off:]
		hdr, ok := tlsrec.ParseHeader(rest)
		if !ok {
			break
		}
		total := tlsrec.HeaderSize + hdr.Length
		if len(rest) < total {
			break
		}
		plain := 0
		if hdr.Type == tlsrec.ContentApplicationData && hdr.Length >= tlsrec.SealOverhead {
			plain = hdr.Length - tlsrec.SealOverhead
		}
		tainted := false
		for _, tb := range d.taint[d.off : d.off+total] {
			if tb {
				tainted = true
				break
			}
		}
		out = append(out, RecordEvent{
			Type:     hdr.Type,
			WireLen:  total,
			PlainLen: plain,
			Tainted:  tainted,
		})
		d.off += total
		if d.ck.Enabled() {
			d.ck.CaptureRecord(d.ckDir, total, len(d.buf)-d.off)
		}
	}
	d.evs = out
	return out
}
