package experiments

import (
	"time"

	"iobt/internal/asset"
	"iobt/internal/discovery"
	"iobt/internal/sim"
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
