// Package metricreg exercises the metricreg analyzer: invariant and
// snapshotter registries are populated unconditionally at init; mesh
// delivery handlers may be registered per node in loops but never
// behind a condition.
package metricreg

import (
	"iobt/internal/checkpoint"
	"iobt/internal/mesh"
	"iobt/internal/verify"
)

// goodInit is the canonical shape: build the full set, register once.
func goodInit(reg *verify.Registry, invs []verify.Invariant) {
	reg.Add(invs...)
}

func looped(reg *verify.Registry, invs []verify.Invariant) {
	for _, inv := range invs {
		reg.Add(inv) // want `verify\.Registry\.Add inside a loop registers repeatedly`
	}
}

func conditional(c *checkpoint.Coordinator, s checkpoint.Snapshotter, enabled bool) {
	if enabled {
		c.Register(s) // want `checkpoint\.Coordinator\.Register is conditional`
	}
}

func allowedConditional(c *checkpoint.Coordinator, s checkpoint.Snapshotter, attached bool) {
	if attached {
		//iobt:allow metricreg optional component, wired only when the mission attaches it
		c.Register(s)
	}
}

// handlersPerNode: per-node registration in a loop is the normal mesh
// wiring pattern; no finding.
func handlersPerNode(n *mesh.Network, ids []mesh.NodeID, h mesh.Handler) {
	for _, id := range ids {
		n.RegisterHandler(id, h)
	}
}

func conditionalHandler(n *mesh.Network, id mesh.NodeID, h mesh.Handler, debug bool) {
	if debug {
		n.RegisterHandler(id, h) // want `mesh\.Network\.RegisterHandler is conditional`
	}
}

// deferredSetup: registration inside a function literal is judged at
// the literal's own scope, not the builder's; no finding here.
func deferredSetup(reg *verify.Registry, inv verify.Invariant) func() {
	return func() {
		reg.Add(inv)
	}
}
