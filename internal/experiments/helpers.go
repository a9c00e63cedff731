package experiments

import (
	"time"

	"iobt/internal/asset"
	"iobt/internal/discovery"
	"iobt/internal/sim"
	"iobt/internal/verify"
)

// nowMS returns wall-clock milliseconds; experiments use it only to
// measure solver cost on the host machine (never inside the simulated
// world, which runs on virtual time).
func nowMS() float64 {
	//iobt:allow detrand measures host solver cost for experiment tables; never read inside the simulated world
	return float64(time.Now().UnixNano()) / 1e6
}

// newDiscovery wraps discovery.New with a method bit mask (1=probe,
// 2=passive, 4=side-channel) so experiment tables can sweep methods.
func newDiscovery(eng *sim.Engine, pop *asset.Population, scanner asset.ID, flags int) *discovery.Service {
	cfg := discovery.DefaultConfig()
	cfg.Scanners = []asset.ID{scanner}
	cfg.Methods = discovery.Methods(flags)
	return discovery.New(eng, pop, nil, cfg)
}

// closeRegistry sweeps every invariant once more at the horizon — a
// violation introduced by the events after the last tick would
// otherwise escape — disarms the periodic sweep, and returns the run's
// verification summary.
func closeRegistry(reg *verify.Registry, eng *sim.Engine) verify.Summary {
	reg.CheckNow(eng.Now())
	reg.Disarm()
	return reg.Summarize()
}
