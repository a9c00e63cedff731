package attack

import (
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// Obscurant is an environmental effect that blinds sensing modalities in
// an area — smoke blinding visual sensors is the paper's canonical
// example ("seismic sensing may be used when smoke or other phenomena
// render visual tracking unreliable", §IV.B). Unlike a Jammer it does
// not touch communication, only perception.
type Obscurant struct {
	Area geo.Circle
	// Blocks are the modality bits unusable inside Area.
	Blocks asset.Modality
	// From/Until bound the active window; zero Until means forever.
	From, Until time.Duration
}

// Active reports whether the obscurant is present at time now.
func (o Obscurant) Active(now time.Duration) bool {
	if now < o.From {
		return false
	}
	return o.Until == 0 || now < o.Until
}

// Obscurants aggregates environmental effects into the blocked-modality
// query the perception layer consumes.
type Obscurants struct {
	eng  *sim.Engine
	list []Obscurant
}

// NewObscurants returns an empty field.
func NewObscurants(eng *sim.Engine) *Obscurants {
	return &Obscurants{eng: eng}
}

// Add installs an obscurant.
func (f *Obscurants) Add(o Obscurant) { f.list = append(f.list, o) }

// BlockedAt returns the union of modality bits blocked at p now.
func (f *Obscurants) BlockedAt(p geo.Point) asset.Modality {
	if f == nil {
		return 0
	}
	now := f.eng.Now()
	var blocked asset.Modality
	for _, o := range f.list {
		if o.Active(now) && o.Area.Contains(p) {
			blocked |= o.Blocks
		}
	}
	return blocked
}
