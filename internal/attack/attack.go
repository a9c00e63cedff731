// Package attack implements the adversary: jamming fields, node capture,
// and smoke obscurants that blind sensing modalities.
//
// The paper (§II) requires operation in "contested and adversarial
// environments" with "determined intelligent adversaries"; every
// experiment that claims resilience injects its threat model from here.
package attack

import (
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// Jammer is one jamming field with an activation window. Its footprint
// is the circle Area when Area.Radius is positive, otherwise the
// rectangle Region (the `jam region` fault verb); a jammer with neither
// covers nothing.
type Jammer struct {
	Area geo.Circle
	// Region is the rectangular footprint used when Area is unset.
	Region geo.Rect
	// Intensity in [0,1]: fraction of radio range destroyed inside the
	// footprint.
	Intensity float64
	// From/Until bound the active window in virtual time. A zero Until
	// means "forever".
	From, Until time.Duration
}

// Active reports whether the jammer is on at time now.
func (j Jammer) Active(now time.Duration) bool {
	if now < j.From {
		return false
	}
	return j.Until == 0 || now < j.Until
}

// Covers reports whether the jammer's footprint includes p.
func (j Jammer) Covers(p geo.Point) bool {
	if j.Area.Radius > 0 {
		return j.Area.Contains(p)
	}
	return j.Region.Contains(p)
}

// Field aggregates jammers into the intensity function the mesh consumes.
type Field struct {
	eng     *sim.Engine
	jammers []Jammer
}

// NewField returns an empty jamming field.
func NewField(eng *sim.Engine) *Field {
	return &Field{eng: eng}
}

// Add installs a jammer.
func (f *Field) Add(j Jammer) {
	if j.Intensity < 0 {
		j.Intensity = 0
	}
	if j.Intensity > 1 {
		j.Intensity = 1
	}
	f.jammers = append(f.jammers, j)
}

// At returns the maximum active jamming intensity at p.
func (f *Field) At(p geo.Point) float64 {
	now := f.eng.Now()
	maxI := 0.0
	for _, j := range f.jammers {
		if j.Active(now) && j.Covers(p) && j.Intensity > maxI {
			maxI = j.Intensity
		}
	}
	return maxI
}

// Capture compromises a node at the given virtual time: the node keeps
// operating but is adversary-controlled (Compromised=true) and its
// affiliation flips to red for ground-truth accounting.
func Capture(eng *sim.Engine, pop *asset.Population, id asset.ID, at time.Duration) {
	eng.ScheduleAt(at, "attack.capture", func() {
		a := pop.Get(id)
		if a == nil || !a.Alive() {
			return
		}
		a.Compromised = true
	})
}
