package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"iobt/internal/sim"
	"iobt/internal/verify"
)

// The synthetic client flood: concurrent clients slam the admission
// queue with small missions while the chaos injector crashes workers
// mid-flight. It measures what the service promises under pressure —
// sustained missions/sec, tail submit-to-first-event latency, and how
// long a crashed mission takes to be running again — and is the engine
// behind experiment E16 and the CI soak job.

// FloodConfig shapes one flood run.
type FloodConfig struct {
	// Missions is the total missions to push through (default 24).
	Missions int
	// Service configures the service under test.
	Service Config
	// BaseSeed seeds mission i with BaseSeed+i.
	BaseSeed int64
}

// The flood's concurrent submitters, every flood mission's shape, and
// the bound on the post-flood drain.
const (
	floodClients      = 4
	floodRate         = 10 // incidents per minute
	floodAssets       = 90
	floodHorizon      = 30 * time.Second
	floodDrainTimeout = 5 * time.Minute
)

// FloodReport is the outcome of one flood run: the drained service's
// telemetry and what only the flood measures.
type FloodReport struct {
	Telemetry
	Missions   int     `json:"missions"`
	Workers    int     `json:"workers"`
	Retried    int64   `json:"retried_submissions"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// MissionsPerSec is terminal missions over wall elapsed time.
	MissionsPerSec float64 `json:"missions_per_sec"`
	// P50/P99FirstEventMs are submit-to-first-event latency percentiles.
	P50FirstEventMs float64 `json:"p50_first_event_ms"`
	P99FirstEventMs float64 `json:"p99_first_event_ms"`
	// MeanRecoveryMs / MaxRecoveryMs cover crash-to-first-recovered-event
	// gaps (0 when nothing crashed).
	MeanRecoveryMs float64 `json:"mean_recovery_ms"`
	MaxRecoveryMs  float64 `json:"max_recovery_ms"`
	// Summary merges the invariant audits of every mission.
	Summary verify.Summary `json:"summary"`
}

func (c FloodConfig) withDefaults() FloodConfig {
	if c.Missions <= 0 {
		c.Missions = 24
	}
	if c.Service.RetryAfterHint == 0 {
		// The flood's whole point is to cycle backpressure quickly; the
		// production 1s default would serialize the run behind sleeps.
		c.Service.RetryAfterHint = 2 * time.Millisecond
	}
	return c
}

// retryWait converts the service's Retry-After hint into one client's
// actual backoff: the hint plus up to 50% deterministic jitter, so
// rejected clients spread out instead of re-colliding in lockstep at
// exactly the advertised instant.
func retryWait(hint time.Duration, rng *sim.RNG) time.Duration {
	if hint <= 0 {
		hint = 2 * time.Millisecond
	}
	if q := int(hint / 2); q > 0 {
		hint += time.Duration(rng.Intn(q + 1))
	}
	return hint
}

// floodScenario builds mission i's scenario: small open-terrain worlds,
// alternating command models, reliable orders on every fourth mission so
// the ARQ checkpoint section is exercised too.
func floodScenario(cfg FloodConfig, i int) verify.Scenario {
	sc := verify.Scenario{
		Seed:    cfg.BaseSeed + int64(i),
		Assets:  floodAssets,
		Size:    600,
		Terrain: "open",
		Command: "intent",
		Rate:    floodRate,
		Horizon: floodHorizon,
	}
	if i%2 == 1 {
		sc.Command = "hierarchy"
		sc.Reliable = i%4 == 1
	}
	return sc
}

// Flood runs the synthetic client flood and returns its report.
func Flood(cfg FloodConfig) (*FloodReport, error) {
	cfg = cfg.withDefaults()
	svc := New(cfg.Service)
	defer svc.Close()

	start := time.Now()
	work := make(chan verify.Scenario)
	go func() {
		defer close(work)
		for i := 0; i < cfg.Missions; i++ {
			work <- floodScenario(cfg, i)
		}
	}()

	var mu sync.Mutex
	var retried int64
	var submitErr error
	var wg sync.WaitGroup
	wg.Add(floodClients)
	for c := 0; c < floodClients; c++ {
		go func(client int) {
			defer wg.Done()
			// Each client jitters its retries from its own seed-derived
			// stream, so the backoff pattern is reproducible run to run.
			rng := sim.NewRNG(cfg.BaseSeed).Derive(fmt.Sprintf("flood.client.%d", client))
			for sc := range work {
				// A real client retries on 429 backpressure, honoring the
				// server's Retry-After hint; count the retries so the report
				// shows the queue actually pushed back.
				for {
					_, err := svc.SubmitScenario(sc)
					if err == nil {
						break
					}
					var qf *QueueFullError
					if !errors.As(err, &qf) {
						mu.Lock()
						if submitErr == nil {
							submitErr = err
						}
						mu.Unlock()
						return
					}
					mu.Lock()
					retried++
					mu.Unlock()
					time.Sleep(retryWait(qf.RetryAfter, rng))
				}
			}
		}(c)
	}
	wg.Wait()
	if submitErr != nil {
		return nil, fmt.Errorf("flood: submit: %w", submitErr)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), floodDrainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("flood: drain: %w", err)
	}

	elapsed := time.Since(start)
	rep := &FloodReport{
		Telemetry:  svc.Telemetry(),
		Missions:   cfg.Missions,
		Workers:    svc.cfg.Workers,
		Retried:    retried,
		ElapsedSec: elapsed.Seconds(),
	}
	terminal := rep.Completed + rep.Degraded + rep.Failed + rep.Quarantined
	if sec := elapsed.Seconds(); sec > 0 {
		rep.MissionsPerSec = float64(terminal) / sec
	}

	var firstEvent, recoveries sim.Series
	for _, m := range svc.Missions() {
		if d := m.FirstEventLatency(); d > 0 {
			firstEvent.Add(float64(d) / float64(time.Millisecond))
		}
		for _, v := range m.RecoveryTimes() {
			recoveries.Add(v)
		}
		rep.Summary.Merge(m.Summary())
	}
	rep.P50FirstEventMs = firstEvent.Percentile(50)
	rep.P99FirstEventMs = firstEvent.Percentile(99)
	rep.MeanRecoveryMs = recoveries.Mean()
	rep.MaxRecoveryMs = recoveries.Max()
	return rep, nil
}
