package mesh

import (
	"strconv"
	"time"

	"iobt/internal/sim"
)

// Reliable is a stop-and-wait ARQ layer over the lossy mesh: each
// message is retried until acknowledged or the retry budget is spent.
// Forward-deployed links drop packets routinely (paper §II), so
// mission-critical traffic — orders, evacuation routes — needs
// acknowledged delivery; the cost is latency and extra airtime, which
// the tests and benches quantify.
//
// Retransmission timing is adaptive: the layer keeps a smoothed RTT
// estimate (Jacobson/Karels, with Karn's rule: only never-retransmitted
// exchanges contribute samples) and backs off exponentially with
// deterministic jitter on each retry, so a jammed or partitioned mesh
// is probed at decreasing cost instead of hammered on a fixed period.
type Reliable struct {
	net *Network
	eng *sim.Engine
	// MaxRetries bounds retransmissions (default 5).
	MaxRetries int
	// Timeout is the initial retransmission timeout used before any RTT
	// sample exists (default 2s).
	Timeout time.Duration
	// MinTimeout floors the adaptive timeout (default 50ms).
	MinTimeout time.Duration
	// MaxTimeout caps the adaptive timeout and the backoff (default 30s).
	MaxTimeout time.Duration
	// Backoff is the per-retry timeout multiplier (default 2).
	Backoff float64
	// JitterFrac spreads each timeout uniformly within ±JitterFrac
	// (default 0.1). Jitter is drawn from a dedicated engine stream, so
	// runs stay deterministic per seed.
	JitterFrac float64
	// Readdress, when set, rewrites each message as Restore requeues it
	// after a warm failover (mapping the dead post's ID to its
	// successor's). Nil leaves messages unchanged.
	Readdress func(Message) Message

	rng *sim.RNG

	nextSeq  int
	inflight map[int]*rtxState
	handlers map[NodeID]Handler
	seen     map[NodeID]map[int]bool // per-destination delivered seqs
	snapLen  int                     // size of the last Snapshot, reserved for the next

	srtt   time.Duration
	rttvar time.Duration
	hasRTT bool

	// Acked and Exhausted count terminal outcomes.
	Acked     sim.Counter
	Exhausted sim.Counter
	// Attempts counts every transmission including retries.
	Attempts sim.Counter
	// LateAcks counts ACKs that arrived after their exchange was already
	// retired (completed or exhausted); they are ignored.
	LateAcks sim.Counter
	// Registrations counts Register calls, so tests can assert handlers
	// are installed once rather than churned per message.
	Registrations sim.Counter
	// Requeued counts exchanges re-armed by a warm-failover Restore.
	Requeued sim.Counter
}

type rtxState struct {
	msg     Message
	tries   int
	done    bool
	retx    bool // some attempt was retransmitted (Karn: no RTT sample)
	sentAt  time.Duration
	onAck   func()
	onFail  func()
	timeout sim.Handle
}

// NewReliable wraps a network with an ARQ layer. Nodes that should
// receive reliable messages must be registered via Register (the layer
// owns their mesh handler).
func NewReliable(eng *sim.Engine, net *Network) *Reliable {
	return &Reliable{
		net:        net,
		eng:        eng,
		MaxRetries: 5,
		Timeout:    2 * time.Second,
		MinTimeout: 50 * time.Millisecond,
		MaxTimeout: 30 * time.Second,
		Backoff:    2,
		JitterFrac: 0.1,
		rng:        eng.Stream("mesh.arq"),
		inflight:   make(map[int]*rtxState),
		handlers:   make(map[NodeID]Handler),
		seen:       make(map[NodeID]map[int]bool),
	}
}

// Register installs the application handler for a node and takes over
// its mesh handler for ACK processing and duplicate suppression.
func (r *Reliable) Register(id NodeID, h Handler) {
	r.Registrations.Inc()
	r.handlers[id] = h
	r.net.RegisterHandler(id, func(msg Message) { r.onReceive(id, msg) })
}

// RTO returns the current base retransmission timeout: the configured
// initial Timeout until an RTT sample exists, then SRTT + 4·RTTVAR
// clamped to [MinTimeout, MaxTimeout].
func (r *Reliable) RTO() time.Duration {
	if !r.hasRTT {
		return r.Timeout
	}
	rto := r.srtt + 4*r.rttvar
	if rto < r.MinTimeout {
		rto = r.MinTimeout
	}
	if rto > r.MaxTimeout {
		rto = r.MaxTimeout
	}
	return rto
}

// sampleRTT folds one round-trip measurement into the estimator
// (RFC 6298 coefficients).
func (r *Reliable) sampleRTT(rtt time.Duration) {
	if !r.hasRTT {
		r.srtt = rtt
		r.rttvar = rtt / 2
		r.hasRTT = true
		return
	}
	dev := r.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	r.rttvar = (3*r.rttvar + dev) / 4
	r.srtt = (7*r.srtt + rtt) / 8
}

// attemptTimeout returns the jittered, backed-off deadline for the
// given attempt number (1-based).
func (r *Reliable) attemptTimeout(tries int) time.Duration {
	d := float64(r.RTO())
	factor := r.Backoff
	if factor < 1 {
		factor = 1
	}
	for i := 1; i < tries; i++ {
		d *= factor
		if d >= float64(r.MaxTimeout) {
			d = float64(r.MaxTimeout)
			break
		}
	}
	if r.JitterFrac > 0 {
		d *= 1 + r.JitterFrac*(2*r.rng.Float64()-1)
	}
	to := time.Duration(d)
	if to < time.Millisecond {
		to = time.Millisecond
	}
	return to
}

// Send transmits msg reliably. onAck (optional) fires when the ACK
// arrives; onFail (optional) fires when the retry budget is exhausted.
// The sender's mesh handler is installed automatically so ACKs can
// reach the ARQ layer (Register it explicitly if it also consumes
// application traffic).
func (r *Reliable) Send(msg Message, onAck, onFail func()) {
	if _, ok := r.handlers[msg.From]; !ok {
		r.Register(msg.From, nil)
	}
	seq := r.nextSeq
	r.nextSeq++
	st := &rtxState{msg: msg, onAck: onAck, onFail: onFail}
	r.inflight[seq] = st
	r.attempt(seq)
}

func (r *Reliable) attempt(seq int) {
	st, ok := r.inflight[seq]
	if !ok || st.done {
		return
	}
	if st.tries > r.MaxRetries {
		st.done = true
		delete(r.inflight, seq)
		r.Exhausted.Inc()
		if st.onFail != nil {
			st.onFail()
		}
		return
	}
	st.tries++
	if st.tries > 1 {
		st.retx = true
	}
	st.sentAt = r.eng.Now()
	r.Attempts.Inc()
	m := st.msg
	m.Kind = "rel:" + strconv.Itoa(seq) + ":" + m.Kind
	// ARQ handles loss by design: a failed attempt surfaces as a missing ACK and the timeout below retries it
	_ = r.net.Send(m)
	st.timeout = r.eng.Schedule(r.attemptTimeout(st.tries), "arq.timeout", func() { r.attempt(seq) })
}

// onReceive demultiplexes data and ACK frames at a registered node.
func (r *Reliable) onReceive(self NodeID, msg Message) {
	seq, rest, isRel := splitRel(msg.Kind)
	if !isRel {
		if h := r.handlers[self]; h != nil {
			h(msg)
		}
		return
	}
	if rest == "ack" {
		st, ok := r.inflight[seq]
		if !ok || st.done {
			// Duplicate or late ACK: the exchange is already retired
			// (acked earlier, or the retry budget fired onFail). It must
			// neither resurrect state nor double-count.
			r.LateAcks.Inc()
			return
		}
		st.done = true
		st.timeout.Cancel()
		delete(r.inflight, seq)
		if !st.retx {
			r.sampleRTT(r.eng.Now() - st.sentAt)
		}
		r.Acked.Inc()
		if st.onAck != nil {
			st.onAck()
		}
		return
	}
	// Data frame: ACK it (even for duplicates — the ACK may have been
	// lost), deliver once.
	ack := Message{From: self, To: msg.From, Size: 32, Kind: "rel:" + strconv.Itoa(seq) + ":ack"}
	// A lost ACK is the ARQ protocol's own failure mode: the sender times out and retransmits, and we re-ACK the duplicate
	_ = r.net.Send(ack)
	if r.seen[self] == nil {
		r.seen[self] = make(map[int]bool)
	}
	if r.seen[self][seq] {
		return
	}
	r.seen[self][seq] = true
	if h := r.handlers[self]; h != nil {
		delivered := msg
		delivered.Kind = rest
		h(delivered)
	}
}

// splitRel parses "rel:<seq>:<kind>".
func splitRel(kind string) (int, string, bool) {
	const prefix = "rel:"
	if len(kind) <= len(prefix) || kind[:len(prefix)] != prefix {
		return 0, "", false
	}
	rest := kind[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == ':' {
			seq, err := strconv.Atoi(rest[:i])
			if err != nil {
				return 0, "", false
			}
			return seq, rest[i+1:], true
		}
	}
	return 0, "", false
}
