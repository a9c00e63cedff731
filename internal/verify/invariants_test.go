package verify

import (
	"errors"
	"strings"
	"testing"
	"time"

	"iobt/internal/cop"
	"iobt/internal/core"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

func TestPictureMonotoneInvariant(t *testing.T) {
	p := cop.NewPicture(1)
	p.ObserveTrust(4, 2, 1)
	current := p
	inv := PictureMonotone("test", func() []*cop.Picture { return []*cop.Picture{current, nil} })

	if err := inv.Check(); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	// Growth is fine.
	p.ObserveTrack(0, cop.TrackFix{Hits: 3}, 5*time.Second)
	p.Cover(cop.Cell{X: 1, Y: 1})
	if err := inv.Check(); err != nil {
		t.Fatalf("grown state flagged: %v", err)
	}
	// Idempotent re-check of unchanged state is fine.
	if err := inv.Check(); err != nil {
		t.Fatalf("unchanged state flagged: %v", err)
	}
	// Regression: the same replica owner presenting less state than
	// before is exactly what anti-entropy must never do.
	current = cop.NewPicture(1)
	if err := inv.Check(); err == nil {
		t.Error("regressed picture not flagged")
	}
}

func TestPictureMonotoneTracksReplicasIndependently(t *testing.T) {
	a, b := cop.NewPicture(1), cop.NewPicture(2)
	a.ObserveTrust(9, 5, 0)
	inv := PictureMonotone("fleet", func() []*cop.Picture { return []*cop.Picture{a, b} })
	if err := inv.Check(); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	// b catching up via merge moves it up the order; a unchanged.
	b.Merge(a)
	if err := inv.Check(); err != nil {
		t.Errorf("merge flagged as regression: %v", err)
	}
}

func TestGossipConservationInvariant(t *testing.T) {
	// The deep behavioral coverage lives in internal/mesh; here we pin
	// that the registry wrapper surfaces the overlay's own law while a
	// mission-scale world is gossiping under an armed registry.
	terr := geo.NewOpenTerrain(600, 600)
	w := core.NewWorld(core.WorldConfig{Seed: 7, Terrain: terr, Assets: 40})
	defer w.Stop()
	g := mesh.NewGossip(w.Net, mesh.GossipConfig{Fanout: 3, TTL: 8, AntiEntropyEvery: 2 * time.Second})
	for _, id := range w.Net.Nodes() {
		g.Join(id, nil)
	}
	g.Start()

	reg := NewRegistry()
	reg.Add(GossipConservation(g), MeshConservation(w.Net))
	reg.Arm(w.Eng, time.Second)

	members := g.Members()
	if len(members) == 0 {
		t.Fatal("no linked members to gossip between")
	}
	w.Eng.Every(2*time.Second, "test.publish", func() {
		if _, err := g.Publish(members[0], "cop", 48, nil); err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	if err := w.Run(20 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	sum := reg.Summarize()
	if len(sum.Violations) != 0 {
		t.Errorf("violations during gossip run: %+v", sum)
	}
	if sum.Checks == 0 {
		t.Error("registry never swept")
	}
	if g.Published.Value() == 0 || g.DeliveredNew.Value() <= g.Published.Value() {
		t.Errorf("overlay inactive: published %d delivered %d", g.Published.Value(), g.DeliveredNew.Value())
	}
}

// TestRegistryRecordsAndCapsViolations pins the armed sweep's audit
// trail: one stamped violation per failing invariant per tick, passing
// invariants counted but silent, and the record bounded at 100 however
// long the property stays broken.
func TestRegistryRecordsAndCapsViolations(t *testing.T) {
	eng := sim.NewEngine(1)
	errDown := errors.New("post is down")
	down := false
	eng.Schedule(10500*time.Millisecond, "test.break", func() { down = true })

	reg := NewRegistry()
	reg.Register("always-holds", func() error { return nil })
	reg.Register("post-standing", func() error {
		if down {
			return errDown
		}
		return nil
	})
	reg.Arm(eng, time.Second)
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if reg.OK() {
		t.Fatal("registry OK with the post down for 20 ticks")
	}
	vs := reg.Violations()
	if len(vs) != 20 {
		t.Fatalf("violations = %d, want one per down tick (20)", len(vs))
	}
	if v := vs[0]; v.At != 11*time.Second || v.Name != "post-standing" || !errors.Is(v.Err, errDown) {
		t.Errorf("first violation = %v, want post-standing at 11s", v)
	}
	if got := reg.Checks(); got != 60 {
		t.Errorf("checks = %d, want 2 invariants x 30 ticks", got)
	}
	if sum := reg.Summarize(); len(sum.Violations) != 1 || !strings.Contains(sum.Violations[0], "post-standing x20") {
		t.Errorf("summary = %+v, want one post-standing x20 line", sum)
	}

	if err := eng.Run(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.Violations()); n != maxViolations {
		t.Errorf("violations = %d after 220 down ticks, want the cap %d", n, maxViolations)
	}
}
