// Surveillance: the paper's §II "wide area persistent surveillance"
// task at scale — discover assets (including red/gray devices via side
// channels), compose a 2,000-asset-pool composite, and keep it running
// under continuous churn with incremental re-composition.
//
//	go run ./examples/surveillance
package main

import (
	"fmt"
	"log"
	"time"

	"iobt/internal/asset"
	"iobt/internal/core"
	"iobt/internal/discovery"
	"iobt/internal/geo"
)

func main() {
	world := core.NewWorld(core.WorldConfig{
		Seed:    23,
		Terrain: geo.NewUrbanTerrain(3000, 3000, 100),
		Assets:  2000,
		Churn: &asset.ChurnConfig{
			FailRatePerMin:   0.01,
			ArriveRatePerMin: 10,
		},
	})
	defer world.Stop()

	// Phase 1 — recruitment: scanners sweep the sector; the directory
	// accumulates cooperative blue assets and flags silent emitters.
	var scanners []asset.ID
	for _, a := range world.Pop.All() {
		if a.Class == asset.ClassUAV && a.Affiliation == asset.Blue {
			scanners = append(scanners, a.ID)
			if len(scanners) == 8 {
				break
			}
		}
	}
	dcfg := discovery.DefaultConfig()
	dcfg.Scanners = scanners
	disc := discovery.New(world.Eng, world.Pop, world.Trust, dcfg)
	disc.Start()
	if err := world.Run(time.Minute); err != nil {
		log.Fatal(err)
	}
	st := disc.Evaluate()
	fmt.Printf("discovery after 1 min: recall=%.2f class-acc=%.2f red-recall=%.2f red-precision=%.2f\n",
		st.Recall, st.ClassAccuracy, st.RedRecall, st.RedPrecision)

	// Phase 2 — composition over the trust-filtered pool.
	mission := core.DefaultMission(
		geo.NewRect(geo.Point{X: 400, Y: 400}, geo.Point{X: 2600, Y: 2600}))
	mission.Goal.Name = "persistent surveillance"
	mission.Goal.CoverageFrac = 0.5
	mission.Goal.MinTrust = 0.3
	mission.IncidentsPerMin = 12 // tracked movers crossing the sector

	rt := core.NewRuntime(world, mission)
	if err := rt.Synthesize(); err != nil {
		log.Fatalf("synthesis: %v", err)
	}
	a := rt.Composite().Assurance
	fmt.Printf("composite: %d members, coverage %.0f%%, risk %.0f%%, est latency %v\n",
		len(rt.Composite().Members), 100*a.CoverageFrac, 100*a.RiskFrac, a.EstLatency)

	// Phase 3 — persistent operation under churn; the coverage reflex
	// recomposes around failures as a normal operating regime.
	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if err := world.Run(5 * time.Minute); err != nil {
			log.Fatal(err)
		}
		m := &rt.Metrics
		fmt.Printf("t=%2d min: tracked=%d success=%.0f%% repairs=%d (churn: %d failed, %d arrived)\n",
			epoch*5, m.Incidents.Value(), 100*m.SuccessRate(), m.Repairs.Value(),
			world.Churn.Failed(), world.Churn.Arrived())
	}
	rt.Stop()
	disc.Stop()

}
