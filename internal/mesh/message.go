package mesh

import (
	"errors"
	"time"
)

// Send errors.
var (
	// ErrNoRoute means the destination is unreachable right now.
	ErrNoRoute = errors.New("mesh: no route to destination")
	// ErrDeadNode means the source is dead or offline.
	ErrDeadNode = errors.New("mesh: source node is dead or offline")
)

// Send routes msg from msg.From to msg.To hop by hop. Delivery (or loss)
// is asynchronous: each hop takes baseLatency plus transmission and
// queueing delay, and may drop the message with a distance-dependent
// probability. The route is pinned at send time (source routing), so
// mid-flight topology changes can strand a message — exactly the
// disruption the adaptation experiments need to observe.
//
// Send returns ErrNoRoute/ErrDeadNode for immediately-known failures;
// a nil error means "in flight", not "will be delivered".
func (n *Network) Send(msg Message) error {
	n.Sent.Inc()
	src := n.pop.Get(msg.From)
	if src == nil || !src.Alive() || !src.Online {
		n.Dropped.Inc()
		return ErrDeadNode
	}
	path := n.Route(msg.From, msg.To)
	if path == nil {
		n.NoRoute.Inc()
		return ErrNoRoute
	}
	msg.Sent = n.eng.Now()
	n.inFlight++
	n.forward(msg, path, 0)
	return nil
}

// dropInFlight retires an in-flight message as dropped, keeping the
// conservation ledger (see CheckConservation) balanced.
func (n *Network) dropInFlight() {
	n.Dropped.Inc()
	n.inFlight--
}

// forward schedules the hop from path[i] to path[i+1].
func (n *Network) forward(msg Message, path []NodeID, i int) {
	if i >= len(path)-1 {
		n.deliver(msg)
		return
	}
	from := n.pop.Get(path[i])
	// The link must still exist (death, mobility or jamming may have
	// severed it).
	r, d, ok := n.link(path[i], path[i+1])
	if !ok {
		n.dropInFlight()
		return
	}
	// Distance-dependent loss: quadratic rise toward the range edge,
	// floored so even short hops are not perfectly reliable.
	frac := d / r
	pLoss := n.cfg.LossBase * frac * frac
	if n.rng.Bool(pLoss) {
		n.dropInFlight()
		return
	}
	// Energy: transmitter pays per byte.
	from.Drain(msg.Size * energyPerByte)
	delay := baseLatency + n.txDelay(from.ID, msg.Size, from.Caps.Bandwidth)
	if n.hopFault != nil {
		eff := n.hopFault(&msg)
		if eff.Drop {
			n.dropInFlight()
			return
		}
		if eff.Corrupt {
			msg.Corrupted = true
		}
		delay += eff.Delay
	}
	msg.Hops++
	n.eng.Schedule(delay, "mesh.hop", func() {
		n.forward(msg, path, i+1)
	})
}

// txDelay models transmission plus queueing at a node: the node's
// backlog drains at its bandwidth; this message waits behind it.
func (n *Network) txDelay(id NodeID, sizeBytes, bandwidthKbps float64) time.Duration {
	if bandwidthKbps <= 0 {
		bandwidthKbps = 1
	}
	bytesPerSec := bandwidthKbps * 1000 / 8
	tx := sizeBytes / bytesPerSec
	st := n.backlog[id]
	now := n.eng.Now()
	// Drain the backlog for the elapsed wall time.
	elapsed := (now - st.asOf).Seconds()
	st.bytes -= elapsed * bytesPerSec
	if st.bytes < 0 {
		st.bytes = 0
	}
	wait := st.bytes / bytesPerSec
	st.bytes += sizeBytes
	st.asOf = now
	n.backlog[id] = st
	return time.Duration((wait + tx) * float64(time.Second))
}

func (n *Network) deliver(msg Message) {
	dst := n.pop.Get(msg.To)
	if dst == nil || !dst.Alive() || !dst.Online {
		n.dropInFlight()
		return
	}
	if msg.Corrupted {
		// A corrupted frame still consumes airtime and reaches the
		// destination, but its content is garbage: handlers see an
		// unparseable kind and no payload, and must tolerate it.
		n.Corrupted.Inc()
		msg.Kind = "corrupt"
		msg.Payload = nil
	}
	n.Delivered.Inc()
	n.inFlight--
	n.LatencySec.AddDuration(n.eng.Now() - msg.Sent)
	n.HopCount.Add(float64(msg.Hops))
	if h, ok := n.handlers[msg.To]; ok {
		h(msg)
	}
}

// SendDirect bypasses routing and attempts a single-hop send, failing
// (dropping) if the nodes are not linked. It is used by protocols that
// maintain their own overlay (gossip, spanning tree).
func (n *Network) SendDirect(msg Message) error {
	n.Sent.Inc()
	if !n.Linked(msg.From, msg.To) {
		n.Dropped.Inc()
		return ErrNoRoute
	}
	msg.Sent = n.eng.Now()
	n.inFlight++
	n.forward(msg, []NodeID{msg.From, msg.To}, 0)
	return nil
}
