// Evacuation: the paper's §I motivating scenario — a non-combatant
// evacuation in a contested urban area. The example compares the two
// command models under mid-mission jamming and shows the reflexes
// (incremental re-composition) keeping the mission alive.
//
//	go run ./examples/evacuation
package main

import (
	"fmt"
	"log"
	"time"

	"iobt/internal/attack"
	"iobt/internal/core"
	"iobt/internal/geo"
)

func main() {
	fmt.Println("non-combatant evacuation: urban sector, jamming begins at t=3min")
	fmt.Println()
	for _, cmd := range []core.CommandModel{core.CommandHierarchy, core.CommandIntent} {
		runOnce(cmd)
	}
}

func runOnce(cmd core.CommandModel) {
	world := core.NewWorld(core.WorldConfig{
		Seed:    11,
		Terrain: geo.NewUrbanTerrain(1600, 1600),
		Assets:  500,
	})
	defer world.Stop()

	mission := core.DefaultMission(
		geo.NewRect(geo.Point{X: 300, Y: 300}, geo.Point{X: 1300, Y: 1300}))
	mission.Goal.CoverageFrac = 0.45
	mission.Command = cmd
	mission.HierarchyLevels = 3
	mission.IncidentsPerMin = 20 // civilians needing extraction decisions
	mission.IncidentDeadline = 20 * time.Second

	rt := core.NewRuntime(world, mission)
	if err := rt.Synthesize(); err != nil {
		log.Fatalf("%s: synthesis: %v", cmd, err)
	}

	// The adversary jams the evacuation corridor mid-mission.
	world.Jam.Add(attack.Jammer{
		Area:      geo.Circle{Center: geo.Point{X: 800, Y: 800}, Radius: 500},
		Intensity: 0.9,
		From:      3 * time.Minute,
	})
	// And captures two composite members (they keep reporting, lying).
	for i, id := range rt.Composite().Members {
		if i >= 2 {
			break
		}
		attack.Capture(world.Eng, world.Pop, id, 4*time.Minute)
	}

	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	if err := world.Run(8 * time.Minute); err != nil {
		log.Fatal(err)
	}
	rt.Stop()

	m := &rt.Metrics
	fmt.Printf("%-10s evacuees=%d decided-on-time=%.0f%% median-loop=%.2fs repairs=%d\n",
		cmd.String()+":",
		m.Incidents.Value(), 100*m.SuccessRate(),
		m.DecisionLatency.Percentile(50), m.Repairs.Value())
}
