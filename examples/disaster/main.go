// Disaster: the paper's humanitarian-mission scenario (§I: "an earlier
// and better-informed response to a humanitarian need"). Human reports
// about damaged infrastructure flood in with unknown reliability and
// some coordinated misinformation; the pipeline runs estimation-
// theoretic truth discovery, audits sensor sources against consensus,
// and the anomaly attention service ranks the situations that deserve
// responders' scarce attention — ignoring a decoy spike.
//
//	go run ./examples/disaster
package main

import (
	"fmt"

	"iobt/internal/anomaly"
	"iobt/internal/asset"
	"iobt/internal/sim"
	"iobt/internal/socialsense"
	"iobt/internal/trust"
)

func main() {
	rng := sim.NewRNG(99)

	// --- Social sensing: which damage reports are true? ---
	cfg := socialsense.DefaultGenConfig()
	cfg.Sources = 300        // residents reporting via phones
	cfg.Claims = 400         // "bridge X is down", "district Y flooded", ...
	cfg.ColluderFrac = 0.15  // coordinated misinformation
	cfg.ReliabilityAlpha = 4 // honest but noisy crowd
	cfg.ReliabilityBeta = 2

	data := socialsense.Generate(rng, cfg)
	maj := socialsense.MajorityVote(data)
	em := socialsense.EM(data)

	fmt.Println("damage-report truth discovery (400 claims, 300 sources, 15% colluders):")
	fmt.Printf("  majority vote accuracy: %.3f\n", socialsense.Accuracy(maj, data.Truth))
	fmt.Printf("  EM truth discovery:     %.3f (%d iterations)\n",
		socialsense.Accuracy(em.Estimates(), data.Truth), em.Iterations)

	// Feed estimated reliabilities into the trust ledger.
	ledger := trust.NewLedger()
	for s, rel := range em.Reliability {
		ledger.Observe(asset.ID(s), trust.EvTruth, rel >= 0.5)
	}
	flagged := 0
	for s := range em.Reliability {
		if data.Colluder[s] && !ledger.Trusted(asset.ID(s)) {
			flagged++
		}
	}
	fmt.Printf("  colluders distrusted:   %d / %d\n", flagged, count(data.Colluder))

	// --- Sensor audit: a water-level gauge is mis-calibrated. ---
	audit := anomaly.NewSourceAudit()
	for round := 0; round < 60; round++ {
		level := 4 + rng.Norm(0, 0.2) // river level, meters
		reports := map[int]float64{}
		for gauge := 0; gauge < 7; gauge++ {
			reports[gauge] = level + rng.Norm(0, 0.1)
		}
		reports[7] = level + 2.5 // damaged gauge reads high
		audit.Round(reports)
	}
	fmt.Printf("\nsensor audit: bad gauges = %v (mean deviation %.2fm)\n",
		audit.BadSources(), audit.MeanDeviation(7))

	// --- Attention: three districts stream distress indicators. ---
	att := anomaly.NewAttention()
	for i := 0; i < 150; i++ {
		att.Observe("district-north", rng.Norm(10, 1))
		att.Observe("district-center", rng.Norm(10, 1))
		att.Observe("district-river", rng.Norm(10, 1))
	}
	att.Observe("district-north", 500) // decoy: a single spurious spike
	for i := 0; i < 10; i++ {
		att.Observe("district-river", 30) // sustained flooding signal
		att.Observe("district-north", rng.Norm(10, 1))
		att.Observe("district-center", rng.Norm(10, 1))
	}
	fmt.Printf("attention ranking (sustained beats decoy): %v\n", att.Ranked())
}

func count(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
