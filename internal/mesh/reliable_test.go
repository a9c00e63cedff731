package mesh

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// lossyPair builds two nodes with a lossy link at the range edge.
func lossyPair(t testing.TB, lossBase float64, seed int64) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 100
	for i := 0; i < 2; i++ {
		a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
			Mobility: &geo.Static{P: geo.Point{X: float64(i) * 95, Y: 500}}}
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = lossBase
	return eng, New(eng, pop, terr, cfg)
}

func TestReliableDeliversOverLossyLink(t *testing.T) {
	eng, net := lossyPair(t, 0.6, 1) // ~54% per-hop loss at this distance
	r := NewReliable(eng, net)
	r.MaxRetries = 15 // round-trip success is ~0.21 per attempt here
	delivered := 0
	r.Register(1, func(m Message) {
		if m.Kind != "order" {
			t.Errorf("delivered kind = %q", m.Kind)
		}
		delivered++
	})
	acked, failed := 0, 0
	const total = 50
	for i := 0; i < total; i++ {
		r.Send(Message{From: 0, To: 1, Size: 100, Kind: "order"},
			func() { acked++ }, func() { failed++ })
	}
	_ = eng.Run(20 * time.Minute)
	if acked < total*9/10 {
		t.Errorf("acked %d of %d over lossy link; ARQ should recover most", acked, total)
	}
	// Delivery can exceed acks (data arrived, every ACK lost) but never
	// lag them.
	if delivered < acked {
		t.Errorf("delivered %d < acked %d", delivered, acked)
	}
	if acked+failed != total {
		t.Errorf("acked %d + failed %d != %d", acked, failed, total)
	}
	// Retries actually happened.
	if r.Attempts.Value() <= uint64(total) {
		t.Errorf("attempts = %d; expected retransmissions", r.Attempts.Value())
	}
	if int(r.Acked.Value()) != acked || int(r.Exhausted.Value()) != failed {
		t.Error("counters disagree with callbacks")
	}
}

func TestReliableNoDuplicateDelivery(t *testing.T) {
	// Perfect link: every retry would duplicate without suppression;
	// force a retry by making the timeout shorter than the RTT.
	eng, net := lossyPair(t, 0, 2)
	r := NewReliable(eng, net)
	r.Timeout = time.Millisecond // well under the ~10ms round trip
	delivered := 0
	r.Register(1, func(Message) { delivered++ })
	r.Send(Message{From: 0, To: 1, Size: 100, Kind: "x"}, nil, nil)
	_ = eng.Run(time.Minute)
	if delivered != 1 {
		t.Errorf("delivered %d times, want exactly once", delivered)
	}
	if r.Attempts.Value() < 2 {
		t.Errorf("attempts = %d; the short timeout should have retried", r.Attempts.Value())
	}
}

func TestReliableExhaustsOnPartition(t *testing.T) {
	eng, net := lossyPair(t, 0, 3)
	r := NewReliable(eng, net)
	r.MaxRetries = 2
	r.Register(1, func(Message) {})
	// Jam everything: no frame gets through.
	net.SetJamming(func(geo.Point) float64 { return 1 })
	net.Refresh()
	failed := false
	r.Send(Message{From: 0, To: 1, Size: 10, Kind: "x"}, nil, func() { failed = true })
	_ = eng.Run(time.Minute)
	if !failed {
		t.Error("retry budget exhaustion not reported")
	}
	if r.Exhausted.Value() != 1 {
		t.Errorf("Exhausted = %d", r.Exhausted.Value())
	}
}

func TestReliablePassesPlainTraffic(t *testing.T) {
	eng, net := lossyPair(t, 0, 4)
	r := NewReliable(eng, net)
	got := ""
	r.Register(1, func(m Message) { got = m.Kind })
	// A plain (non-ARQ) message sent directly still reaches the handler.
	mustSend(t, net, Message{From: 0, To: 1, Size: 10, Kind: "plain"})
	_ = eng.Run(time.Minute)
	if got != "plain" {
		t.Errorf("plain traffic kind = %q", got)
	}
}

func TestReliableDuplicateAckAfterCompletion(t *testing.T) {
	eng, net := lossyPair(t, 0, 5)
	r := NewReliable(eng, net)
	acked := 0
	r.Register(1, func(Message) {})
	r.Send(Message{From: 0, To: 1, Size: 10, Kind: "x"}, func() { acked++ }, nil)
	_ = eng.Run(time.Minute)
	if acked != 1 || r.Acked.Value() != 1 {
		t.Fatalf("acked=%d counter=%d before duplicate", acked, r.Acked.Value())
	}
	// Replay the ACK frame for the completed exchange (seq 0): it must
	// be ignored, not double-counted.
	r.onReceive(0, Message{From: 1, To: 0, Kind: "rel:0:ack"})
	if acked != 1 || r.Acked.Value() != 1 {
		t.Errorf("duplicate ACK double-counted: acked=%d counter=%d", acked, r.Acked.Value())
	}
	if r.LateAcks.Value() != 1 {
		t.Errorf("LateAcks = %d, want 1", r.LateAcks.Value())
	}
}

func TestReliableExhaustionThenLateAck(t *testing.T) {
	eng, net := lossyPair(t, 0, 6)
	r := NewReliable(eng, net)
	r.MaxRetries = 2
	r.Timeout = 100 * time.Millisecond
	r.Register(1, func(Message) {})
	// Full partition: nothing gets through.
	net.SetJamming(func(geo.Point) float64 { return 1 })
	net.Refresh()
	acked, failed := 0, 0
	r.Send(Message{From: 0, To: 1, Size: 10, Kind: "x"}, func() { acked++ }, func() { failed++ })
	_ = eng.Run(time.Minute)
	if failed != 1 || r.Exhausted.Value() != 1 {
		t.Fatalf("failed=%d Exhausted=%d, want 1/1", failed, r.Exhausted.Value())
	}
	// An ACK straggling in after Exhausted fired must not resurrect the
	// exchange, fire onAck, or disturb the counters.
	r.onReceive(0, Message{From: 1, To: 0, Kind: "rel:0:ack"})
	if acked != 0 {
		t.Error("late ACK resurrected a dead exchange")
	}
	if r.Acked.Value() != 0 || r.Exhausted.Value() != 1 {
		t.Errorf("late ACK disturbed counters: acked=%d exhausted=%d",
			r.Acked.Value(), r.Exhausted.Value())
	}
	if r.LateAcks.Value() != 1 {
		t.Errorf("LateAcks = %d, want 1", r.LateAcks.Value())
	}
}

func TestReliableExponentialBackoff(t *testing.T) {
	eng, net := lossyPair(t, 0, 7)
	r := NewReliable(eng, net)
	r.MaxRetries = 4
	r.Timeout = time.Second
	r.Register(1, func(Message) {})
	net.SetJamming(func(geo.Point) float64 { return 1 })
	net.Refresh()
	var failedAt time.Duration
	r.Send(Message{From: 0, To: 1, Size: 10, Kind: "x"}, nil, func() { failedAt = eng.Now() })
	_ = eng.Run(5 * time.Minute)
	// Five attempts with doubling timeouts: ~1+2+4+8+16 = 31s (±10%
	// jitter). A fixed 1s timeout would exhaust at ~5s.
	if failedAt < 20*time.Second {
		t.Errorf("exhausted at %v; backoff should space retries out past 20s", failedAt)
	}
	if failedAt > 45*time.Second {
		t.Errorf("exhausted at %v; backoff overshot the ~31s expectation", failedAt)
	}
}

func TestReliableAdaptiveRTO(t *testing.T) {
	eng, net := lossyPair(t, 0, 8)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})
	if r.RTO() != r.Timeout {
		t.Fatalf("pre-sample RTO = %v, want initial Timeout %v", r.RTO(), r.Timeout)
	}
	for i := 0; i < 5; i++ {
		r.Send(Message{From: 0, To: 1, Size: 100, Kind: "x"}, nil, nil)
	}
	_ = eng.Run(time.Minute)
	if r.srtt <= 0 {
		t.Fatal("no RTT samples on a clean link")
	}
	// The adaptive RTO must have pulled far below the 2s initial value
	// toward the ~10ms observed RTT (floored at MinTimeout).
	if rto := r.RTO(); rto >= r.Timeout/2 {
		t.Errorf("RTO = %v did not adapt down from %v (SRTT %v)", rto, r.Timeout, r.srtt)
	}
	if rto := r.RTO(); rto < r.MinTimeout {
		t.Errorf("RTO = %v below floor %v", rto, r.MinTimeout)
	}
}

func TestSplitRel(t *testing.T) {
	if seq, rest, ok := splitRel("rel:17:order"); !ok || seq != 17 || rest != "order" {
		t.Errorf("splitRel = %d %q %v", seq, rest, ok)
	}
	for _, bad := range []string{"order", "rel:", "rel:xx:ack", "rel:5"} {
		if _, _, ok := splitRel(bad); ok {
			t.Errorf("splitRel(%q) accepted", bad)
		}
	}
}
