package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"iobt/internal/asset"
	"iobt/internal/cop"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/verify"
)

// E17Dissemination compares three dissemination strategies for the
// common operational picture — epidemic gossip with anti-entropy, naive
// flooding (gossip with fanout >= degree and repairs disabled), and
// BFS source-routed unicast — under the disruption the paper treats as
// normal: a double partition that stands for most of the run, a jammed
// corridor, and an eventual heal. Every payload is an encoded CRDT
// picture replica (internal/cop) merged at the receiver, so the
// experiment also exercises the convergence layer end to end: the
// picture-monotone and gossip-conservation invariants are armed
// throughout, and each mode is run twice on the same seed to pin the
// determinism contract (identical metrics, byte for byte).
func E17Dissemination(seed int64, quick bool) *Table {
	t := &Table{
		ID:    "E17",
		Title: "COP dissemination: gossip vs flooding vs BFS unicast under partition+jam",
		Header: []string{"mode", "delivery", "lat mean (s)", "lat p95 (s)",
			"frames", "repairs", "deterministic"},
		Notes: "gossip anti-entropy reconverges after the heal (delivery >= 0.95) where BFS unicast strands " +
			"cross-partition traffic (< 0.5); flooding and BFS deliver in seconds but only where links exist, " +
			"while gossip's mean latency absorbs the partition wait its repairs survive",
	}

	var verif verify.Summary
	for _, mode := range []string{"gossip", "flood", "bfs"} {
		a := runE17(seed, quick, mode, &verif)
		b := runE17(seed, quick, mode, &verif)
		det := "yes"
		if a.fingerprint != b.fingerprint {
			det = "no"
		}
		t.AddRow(mode, f3(a.delivery), f2(a.latMean), f2(a.latP95),
			d(a.frames), d(a.repairs), det)
	}
	t.Verification = &verif
	return t
}

// e17Result is one run's metrics plus a fingerprint over everything the
// determinism contract covers.
type e17Result struct {
	delivery    float64
	latMean     float64
	latP95      float64
	frames      int
	repairs     int
	fingerprint string
}

// e17Timeline is the shared fault schedule: two unbounded partitions cut
// the map into thirds at 20s, a jammed center corridor from 40s to 100s,
// and a heal at 200s. Publishing stops before the heal, so whatever a
// mode failed to deliver by then can only be recovered by repair.
const (
	e17Size         = 1200.0
	e17PartitionAt  = 20 * time.Second
	e17HealAt       = 200 * time.Second
	e17Horizon      = 260 * time.Second
	e17PublishUntil = 195 * time.Second
)

func e17Plan() *fault.Plan {
	return (&fault.Plan{Name: "e17"}).
		Add(fault.Fault{Kind: fault.Partition, At: e17PartitionAt, X: e17Size / 3}).
		Add(fault.Fault{Kind: fault.Partition, At: e17PartitionAt, X: 2 * e17Size / 3}).
		Add(fault.Fault{Kind: fault.JamWave, At: 40 * time.Second, Duration: 60 * time.Second,
			Region:    geo.NewRect(geo.Point{X: e17Size / 3, Y: 0}, geo.Point{X: 2 * e17Size / 3, Y: e17Size}),
			Intensity: 0.7}).
		Add(fault.Fault{Kind: fault.Heal, At: e17HealAt})
}

func runE17(seed int64, quick bool, mode string, verif *verify.Summary) e17Result {
	assets := 220
	publishEvery := 5 * time.Second
	if quick {
		assets = 120
		publishEvery = 10 * time.Second
	}
	mcfg := mesh.DefaultConfig()
	mcfg.StepMobility = false // static topology: only faults change connectivity
	w := core.NewWorld(core.WorldConfig{
		Seed:    seed,
		Terrain: geo.NewOpenTerrain(e17Size, e17Size),
		Assets:  assets,
		Mesh:    &mcfg,
	})
	defer w.Stop()
	w.Net.Refresh()

	// Membership is the largest pre-fault connected component, so a
	// perfect protocol could reach delivery 1.0 before the partition and
	// again after the heal.
	var members []mesh.NodeID
	for _, comp := range w.Net.Components(2) {
		if len(comp) > len(members) {
			members = comp
		}
	}
	if len(members) < 3 {
		return e17Result{fingerprint: "degenerate-topology"}
	}
	fault.Apply(w.FaultTarget(nil), e17Plan())

	// One picture replica per member; every payload is an encoded replica
	// merged on reception, whatever transport carried it.
	pictures := make(map[mesh.NodeID]*cop.Picture, len(members))
	for _, id := range members {
		pictures[id] = cop.NewPicture(id)
	}
	merge := func(id mesh.NodeID, msg mesh.Message) {
		enc, ok := msg.Payload.([]byte)
		if !ok {
			return
		}
		_ = pictures[id].MergeEncoded(enc) // a corrupted frame is rejected whole and cannot regress the replica
	}

	// One publisher per map third — the first member (ascending ID) whose
	// position falls in the band — so every partition side originates
	// state that the other sides must eventually hold.
	var publishers []mesh.NodeID
	for band := 0; band < 3; band++ {
		lo, hi := float64(band)*e17Size/3, float64(band+1)*e17Size/3
		for _, id := range members {
			a := w.Pop.Get(id)
			if a == nil || !a.Alive() {
				continue
			}
			if x := a.Pos().X; x >= lo && x < hi {
				publishers = append(publishers, id)
				break
			}
		}
	}

	reg := verify.NewRegistry()
	reg.Add(verify.MeshConservation(w.Net))
	reg.Add(verify.TimeMonotone(w.Eng.Now))
	reg.Add(verify.PictureMonotone("e17-"+mode, func() []*cop.Picture {
		out := make([]*cop.Picture, 0, len(members))
		for _, id := range members {
			out = append(out, pictures[id])
		}
		return out
	}))

	var g *mesh.Gossip
	published, delivered, frames := 0, 0, 0
	var lat sim.Series
	switch mode {
	case "gossip", "flood":
		cfg := mesh.GossipConfig{}
		if mode == "flood" {
			cfg.Fanout = 1 << 16      // relay to every neighbor
			cfg.AntiEntropyEvery = -1 // no repair: pure dissemination
			cfg.TTL = 32              // hop budget is not the limiter
		}
		g = mesh.NewGossip(w.Net, cfg)
		for _, id := range members {
			node := id
			g.Join(id, func(msg mesh.Message) { merge(node, msg) })
		}
		g.Start()
		reg.Add(verify.GossipConservation(g))
	case "bfs":
		for _, id := range members {
			node := id
			w.Net.RegisterHandler(id, func(msg mesh.Message) {
				if msg.Kind != "cop" {
					return
				}
				delivered++
				lat.Add((w.Eng.Now() - msg.Sent).Seconds())
				merge(node, msg)
			})
		}
	}
	reg.Arm(w.Eng, 5*time.Second)

	// Publishing: on every tick each publisher grows its own replica
	// (fresh coverage plus accumulated trust evidence) and disseminates
	// the encoded state.
	ticker := w.Eng.Every(publishEvery, "e17.publish", func() {
		if w.Eng.Now() > e17PublishUntil {
			return
		}
		for _, pub := range publishers {
			p := pictures[pub]
			p.Cover(cop.Cell{X: int32(published), Y: int32(pub)})
			p.ObserveTrust(pub, float64(published+1), 1)
			enc := p.Encode()
			published++
			switch mode {
			case "bfs":
				for _, dst := range members {
					if dst == pub {
						continue
					}
					frames++
					// The strandings are the measurement: BFS unicast offers no repair path, and the delivery-ratio column counts exactly what was lost
					_ = w.Net.Send(mesh.Message{
						From: pub, To: dst, Kind: "cop",
						Payload: enc, Size: float64(len(enc)),
					})
				}
			default:
				if _, err := g.Publish(pub, "cop", float64(len(enc)), enc); err != nil {
					return
				}
			}
		}
	})
	err := w.Run(e17Horizon)
	ticker.Stop()
	verif.Merge(closeRegistry(reg, w.Eng))
	if err != nil {
		return e17Result{fingerprint: "run-error"}
	}

	var res e17Result
	switch mode {
	case "bfs":
		denom := float64(published) * float64(len(members))
		if denom > 0 {
			// The origin holds its own publish; unicast reaches the rest.
			res.delivery = float64(published+delivered) / denom
		}
		res.latMean, res.latP95 = lat.Mean(), lat.Percentile(95)
		res.frames = frames
	default:
		res.delivery = g.DeliveryRatio()
		res.latMean = g.LatencySec.Mean()
		res.latP95 = g.LatencySec.Percentile(95)
		res.frames = int(g.FramesSent.Value())
		res.repairs = int(g.Repairs.Value())
	}
	res.fingerprint = e17Fingerprint(res, published, delivered, pictures, members)
	return res
}

// e17Fingerprint hashes everything the determinism contract covers: the
// headline metrics plus every replica's converged-state digest, walked
// in member order.
func e17Fingerprint(r e17Result, published, delivered int, pictures map[mesh.NodeID]*cop.Picture, members []asset.ID) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%.9f|%.9f|%.9f|%d|%d|%d|%d", r.delivery, r.latMean, r.latP95,
		r.frames, r.repairs, published, delivered)
	for _, id := range members {
		fmt.Fprintf(h, "|%d:%x", id, pictures[id].Digest())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
