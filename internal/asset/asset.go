// Package asset models the "things" of an IoBT: their affiliation
// (blue/red/gray), device class, capability vector, energy state, and
// lifecycle. The paper (§II) stresses extreme heterogeneity — "from tiny
// occupancy sensors to drones with three-dimensional Radar" — so
// capabilities span several orders of magnitude across classes.
package asset

import (
	"fmt"

	"iobt/internal/geo"
)

// ID identifies an asset within one world. IDs are dense small integers
// so they can index slices and the spatial grid directly.
type ID int32

// None is the zero, invalid asset ID.
const None ID = -1

// Affiliation is the control status of an asset (paper §II: blue =
// military-controlled, red = adversary-controlled, gray = neutral/civilian).
type Affiliation int

// Affiliations.
const (
	Blue Affiliation = iota + 1
	Red
	Gray
)

// String returns the affiliation name.
func (a Affiliation) String() string {
	switch a {
	case Blue:
		return "blue"
	case Red:
		return "red"
	case Gray:
		return "gray"
	default:
		return "unknown"
	}
}

// Class is the device class of an asset.
type Class int

// Device classes, ordered roughly by capability.
const (
	ClassMote Class = iota + 1 // tiny disposable sensor
	ClassWearable
	ClassSensor // fixed multi-modal sensor post
	ClassPhone  // commodity handheld (often gray)
	ClassRobot
	ClassUAV
	ClassVehicle
	ClassEdgeServer // edge cloud with GPUs
	ClassHuman      // human asset (social sensing source)
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassMote:
		return "mote"
	case ClassWearable:
		return "wearable"
	case ClassSensor:
		return "sensor"
	case ClassPhone:
		return "phone"
	case ClassRobot:
		return "robot"
	case ClassUAV:
		return "uav"
	case ClassVehicle:
		return "vehicle"
	case ClassEdgeServer:
		return "edge"
	case ClassHuman:
		return "human"
	default:
		return "unknown"
	}
}

// Modality is a sensing modality bit.
type Modality uint16

// Sensing modalities. The paper's adaptation example switches from visual
// to seismic sensing under smoke or jamming, so modalities must be
// first-class.
const (
	ModVisual Modality = 1 << iota
	ModAcoustic
	ModSeismic
	ModRF
	ModThermal
	ModChemical
	ModPhysiological
	ModRadar
	ModLidar
)

var modalityNames = []struct {
	m    Modality
	name string
}{
	{ModVisual, "visual"},
	{ModAcoustic, "acoustic"},
	{ModSeismic, "seismic"},
	{ModRF, "rf"},
	{ModThermal, "thermal"},
	{ModChemical, "chemical"},
	{ModPhysiological, "physio"},
	{ModRadar, "radar"},
	{ModLidar, "lidar"},
}

// String lists the modality names joined by "+".
func (m Modality) String() string {
	if m == 0 {
		return "none"
	}
	out := ""
	for _, e := range modalityNames {
		if m&e.m != 0 {
			if out != "" {
				out += "+"
			}
			out += e.name
		}
	}
	return out
}

// Capabilities is an asset's resource vector. Units are abstract but
// consistent: Compute in MIPS-like units, Storage in MB, Bandwidth in
// kb/s, Energy in joules, ranges in meters.
type Capabilities struct {
	Modalities Modality
	SenseRange float64
	RadioRange float64
	Compute    float64
	Storage    float64
	Bandwidth  float64
	EnergyCap  float64
	// IdlePower is the baseline draw in joules/second when awake;
	// duty-cycled nodes pay it only for their awake fraction.
	IdlePower   float64
	Actuation   bool    // can effect the physical environment
	Reliability float64 // prior probability of correct operation [0,1]
}

// Asset is one IoBT entity.
type Asset struct {
	ID          ID
	Affiliation Affiliation
	Class       Class
	Caps        Capabilities
	Mobility    geo.Mobility

	// Energy is the remaining battery in joules; <= 0 means dead.
	// Edge servers and vehicles are treated as mains/engine powered via a
	// very large capacity.
	Energy float64

	// Online reports whether the node is currently powered and in duty
	// cycle. Disadvantaged assets duty-cycle aggressively (paper §II).
	Online bool
	// DutyCycle is the fraction of time the node is awake, in (0,1].
	DutyCycle float64

	// Compromised marks a blue/gray node the adversary has captured.
	Compromised bool

	// Emission is the node's RF side-channel signature amplitude;
	// discovery uses it to find non-cooperative (red/gray) nodes.
	Emission float64
}

// Pos returns the asset's current position.
func (a *Asset) Pos() geo.Point {
	if a.Mobility == nil {
		return geo.Point{}
	}
	return a.Mobility.Pos()
}

// Alive reports whether the asset has energy and is not failed.
func (a *Asset) Alive() bool { return a.Energy > 0 }

// Drain consumes j joules, flooring at zero. It returns false when the
// battery is exhausted by this drain.
func (a *Asset) Drain(j float64) bool {
	if j <= 0 {
		return a.Energy > 0
	}
	a.Energy -= j
	if a.Energy <= 0 {
		a.Energy = 0
		a.Online = false
		return false
	}
	return true
}

// String renders a short identity line.
func (a *Asset) String() string {
	return fmt.Sprintf("asset %d (%s %s) at %s", a.ID, a.Affiliation, a.Class, a.Pos())
}

// DefaultCaps returns the canonical capability vector for a device class.
// Values span the orders-of-magnitude heterogeneity the paper requires.
func DefaultCaps(c Class) Capabilities {
	switch c {
	case ClassMote:
		return Capabilities{Modalities: ModSeismic | ModAcoustic, SenseRange: 30, RadioRange: 80, Compute: 1, Storage: 1, Bandwidth: 20, EnergyCap: 5e3, IdlePower: 0.01, Reliability: 0.85}
	case ClassWearable:
		return Capabilities{Modalities: ModPhysiological | ModAcoustic, SenseRange: 5, RadioRange: 60, Compute: 10, Storage: 100, Bandwidth: 100, EnergyCap: 2e4, IdlePower: 0.05, Reliability: 0.9}
	case ClassSensor:
		return Capabilities{Modalities: ModVisual | ModThermal | ModAcoustic, SenseRange: 150, RadioRange: 250, Compute: 50, Storage: 1e3, Bandwidth: 500, EnergyCap: 2e5, IdlePower: 0.5, Reliability: 0.95}
	case ClassPhone:
		return Capabilities{Modalities: ModVisual | ModAcoustic | ModRF, SenseRange: 50, RadioRange: 120, Compute: 200, Storage: 1e4, Bandwidth: 1e3, EnergyCap: 4e4, IdlePower: 0.8, Reliability: 0.8}
	case ClassRobot:
		return Capabilities{Modalities: ModVisual | ModLidar | ModAcoustic, SenseRange: 100, RadioRange: 200, Compute: 500, Storage: 1e4, Bandwidth: 2e3, EnergyCap: 5e5, IdlePower: 5, Actuation: true, Reliability: 0.92}
	case ClassUAV:
		return Capabilities{Modalities: ModVisual | ModThermal | ModRadar | ModLidar, SenseRange: 400, RadioRange: 600, Compute: 300, Storage: 5e3, Bandwidth: 5e3, EnergyCap: 3e5, IdlePower: 50, Actuation: true, Reliability: 0.9}
	case ClassVehicle:
		return Capabilities{Modalities: ModVisual | ModRadar | ModRF, SenseRange: 250, RadioRange: 500, Compute: 1e3, Storage: 1e5, Bandwidth: 1e4, EnergyCap: 1e9, IdlePower: 100, Actuation: true, Reliability: 0.97}
	case ClassEdgeServer:
		return Capabilities{Modalities: 0, SenseRange: 0, RadioRange: 400, Compute: 1e5, Storage: 1e7, Bandwidth: 1e5, EnergyCap: 1e9, IdlePower: 200, Reliability: 0.99}
	case ClassHuman:
		return Capabilities{Modalities: ModVisual | ModAcoustic, SenseRange: 80, RadioRange: 100, Compute: 1, Storage: 1, Bandwidth: 50, EnergyCap: 1e9, IdlePower: 0, Reliability: 0.7}
	default:
		return Capabilities{}
	}
}
