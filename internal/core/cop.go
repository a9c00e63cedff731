package core

import (
	"math"

	"iobt/internal/cop"
	"iobt/internal/geo"
)

// This file bridges the live mission state into the convergent common
// operational picture (internal/cop): each node folds what it can see
// locally — the trust ledger, the track picture, the composite's sensor
// footprint — into its own Picture replica, and the gossip overlay
// (internal/mesh) carries encoded replicas between nodes where Merge
// reconciles them. Folding is monotone by construction (evidence joins,
// LWW registers keyed by the engine clock, grow-only coverage), so the
// PictureMonotone invariant holds across arbitrary update/merge orders.

// copCellSize is the coverage-map cell size in meters.
const copCellSize = 100.0

// CellAt quantizes a position into a coverage-map cell.
func CellAt(p geo.Point) cop.Cell {
	return cop.Cell{
		X: int32(math.Floor(p.X / copCellSize)),
		Y: int32(math.Floor(p.Y / copCellSize)),
	}
}

// UpdatePicture folds the actor's current view of the world into its
// picture replica: trust evidence for every subject the ledger has seen,
// an LWW fix per live track stamped with the engine clock, and one
// coverage cell per alive composite member position. r may be nil (a
// bare sensing node with no mission runtime); coverage and tracks are
// then skipped. The update is idempotent at a fixed instant and
// monotone over time.
func UpdatePicture(p *cop.Picture, w *World, r *Runtime) {
	now := w.Eng.Now()
	for _, id := range w.Trust.IDs() {
		alpha, beta := w.Trust.Evidence(id)
		p.ObserveTrust(id, alpha, beta)
	}
	if r == nil {
		return
	}
	if tr := r.Tracker(); tr != nil {
		for _, fx := range tr.Fixes() {
			p.ObserveTrack(fx.ID, cop.TrackFix{
				Pos: fx.Pos, Vel: fx.Vel, Hits: fx.Hits, Confirmed: fx.Confirmed,
			}, now)
		}
	}
	if comp := r.Composite(); comp != nil {
		for _, id := range comp.Members {
			a := w.Pop.Get(id)
			if a == nil || !a.Alive() {
				continue
			}
			p.Cover(CellAt(a.Pos()))
		}
	}
}
