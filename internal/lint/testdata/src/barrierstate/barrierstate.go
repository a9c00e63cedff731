// Package barrierstate seeds the shard-local state violations: a
// barrier-only field read from an unannotated function, an access
// guarded by the *wrong* struct's mutex, and an annotation anchored to
// the wrong declaration kind. The two licensed paths — an
// //iobt:barrier function, and an access under a mutex of the same
// struct value — must stay silent.
package barrierstate

import "sync"

// lane is a miniature of the engine's per-shard state: an owned queue
// advanced between barriers and a mailbox other shards stage into
// under the lane's mutex.
type lane struct {
	mu sync.Mutex
	//iobt:barrier-only
	queue []int
	inbox []int //iobt:barrier-only
	id    int
}

// drain runs between barriers: the annotation licenses every
// barrier-only access in the body.
//
//iobt:barrier
func drain(l *lane) {
	l.queue = append(l.queue, l.inbox...)
	l.inbox = l.inbox[:0]
}

// stage is the mailbox arm: it holds the same lane's mutex, so the
// inbox access is licensed without a barrier annotation.
func stage(l *lane, v int) {
	l.mu.Lock()
	l.inbox = append(l.inbox, v)
	l.mu.Unlock()
}

// peek reads the queue with no barrier annotation and no lock: from a
// worker's perspective this races the owner.
func peek(l *lane) int {
	return len(l.queue) // want `barrier-only field lane.queue touched outside barrier context`
}

// crossLock holds a's mutex while touching b's mailbox: the lock must
// belong to the same struct value as the field.
func crossLock(a, b *lane) {
	a.mu.Lock()
	b.inbox = nil // want `barrier-only field lane.inbox touched outside barrier context`
	a.mu.Unlock()
}

// bypass is audit mutant #17's shape: a send that skips the mailbox
// when the destination is the sender's own lane. The sender owns that
// queue, so nothing races, but a delivery staged in the final window
// then runs in key order when co-sharded and one window later when not:
// the result depends on the shard count.
func bypass(from, to *lane, v int) {
	if from == to {
		from.queue = append(from.queue, v) // want `lane.queue touched outside barrier context` `lane.queue touched outside barrier context`
		return
	}
	to.mu.Lock()
	to.inbox = append(to.inbox, v)
	to.mu.Unlock()
}

// queueDepth documents the waiver shape: a deliberately racy monotone
// read for metrics, carried with a reason.
func queueDepth(l *lane) int {
	//iobt:allow barrierstate metrics-only read of a monotone length; one-window staleness is acceptable and the value never feeds the model
	return len(l.inbox)
}

var orphan int //iobt:barrier-only // want `iobt:barrier-only annotation must sit on a named struct field`
