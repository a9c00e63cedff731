package mesh

import (
	"sort"

	"iobt/internal/checkpoint"
)

// The ARQ in-flight window is command-post state: orders and reports
// awaiting acknowledgment exist only in the sender's retransmission
// table. When the post is destroyed, exchanges the last checkpoint
// captured can be requeued by a warm successor (re-addressed to the new
// post, fresh retry budget); exchanges begun after the cut died with
// the node and must fail loudly, not vanish.

// inflightSeqs returns the live window in ascending seq order, so every
// bulk operation over it is deterministic.
func (r *Reliable) inflightSeqs() []int {
	seqs := make([]int, 0, len(r.inflight))
	for seq := range r.inflight {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// FailInflight terminates every in-flight exchange, firing each onFail
// callback (in seq order). This is the cold-failover disposition: the
// window died with the post and the rebuilt post has no memory of it.
// Returns the number of exchanges failed.
func (r *Reliable) FailInflight() int {
	return r.failSeqs(r.inflightSeqs())
}

func (r *Reliable) failSeqs(seqs []int) int {
	n := 0
	for _, seq := range seqs {
		st, ok := r.inflight[seq]
		if !ok || st.done {
			continue
		}
		st.done = true
		st.timeout.Cancel()
		delete(r.inflight, seq)
		r.Exhausted.Inc()
		n++
		if st.onFail != nil {
			st.onFail()
		}
	}
	return n
}

// SnapshotName implements checkpoint.Snapshotter.
func (r *Reliable) SnapshotName() string { return "arq" }

// Snapshot encodes the in-flight window: each exchange's seq and frame
// metadata, in seq order. Payloads and completion callbacks are
// process-local and not encoded; Restore resumes the live exchanges the
// snapshot names and fails the rest.
func (r *Reliable) Snapshot() []byte {
	e := checkpoint.NewEncoder()
	e.Grow(r.snapLen)
	seqs := r.inflightSeqs()
	e.Int(len(seqs))
	for _, seq := range seqs {
		st := r.inflight[seq]
		e.Int(seq)
		e.Int64(int64(st.msg.From))
		e.Int64(int64(st.msg.To))
		e.Float64(st.msg.Size)
		e.String(st.msg.Kind)
		e.Int(st.tries)
	}
	r.snapLen = e.Len()
	return e.Bytes()
}

// Restore applies a checkpointed window to the live one (the warm
// failover path): exchanges named by the snapshot and still in flight
// are requeued with a fresh retry budget — rewritten through Readdress
// when set, so traffic addressed to the dead post re-homes to its
// successor — while live exchanges the snapshot does not know about are
// failed (they began after the cut and died with the post).
func (r *Reliable) Restore(data []byte) error {
	d := checkpoint.NewDecoder(data)
	// seq, From, To, Size, Kind's length prefix and tries: 48 bytes.
	n := d.Count(d.Int(), 48)
	if d.Err() != nil {
		return d.Err()
	}
	keep := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		seq := d.Int()
		_ = d.Int64()   // From
		_ = d.Int64()   // To
		_ = d.Float64() // Size
		_ = d.String()  // Kind
		_ = d.Int()     // tries
		keep[seq] = true
	}
	if d.Err() != nil {
		return d.Err()
	}
	var lost []int
	for _, seq := range r.inflightSeqs() {
		if !keep[seq] {
			lost = append(lost, seq)
		}
	}
	r.failSeqs(lost)
	for _, seq := range r.inflightSeqs() {
		if keep[seq] {
			r.requeue(seq)
		}
	}
	return nil
}

// requeue re-arms one exchange: fresh retry budget, immediate attempt,
// message rewritten through Readdress. The exchange keeps its seq, so a
// late ACK from a pre-crash attempt still completes it.
func (r *Reliable) requeue(seq int) {
	st, ok := r.inflight[seq]
	if !ok || st.done {
		return
	}
	st.timeout.Cancel()
	st.tries = 0
	// An exchange that spans a failover is not a clean RTT sample
	// (Karn's rule applies: ambiguous which attempt an ACK answers).
	st.retx = true
	if r.Readdress != nil {
		st.msg = r.Readdress(st.msg)
	}
	r.Requeued.Inc()
	r.attempt(seq)
}
