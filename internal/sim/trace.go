package sim

import (
	"fmt"
	"strings"
	"time"
)

// TraceEntry is one recorded simulation event.
type TraceEntry struct {
	At    time.Duration
	Label string
}

// Tracer records executed events into a bounded ring buffer so a run
// can be audited or a failure reproduced ("what fired in the last
// minute before the assertion broke"). Install with Engine.SetTracer;
// tracing is off by default and costs nothing when disabled.
type Tracer struct {
	buf  []TraceEntry
	next int
	full bool
	// Filter, when set, records only events whose label contains the
	// substring.
	Filter string
}

// NewTracer returns a tracer keeping the last n events (n<=0 defaults
// to 1024).
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = 1024
	}
	return &Tracer{buf: make([]TraceEntry, n)}
}

func (t *Tracer) record(at time.Duration, label string) {
	if t.Filter != "" && !strings.Contains(label, t.Filter) {
		return
	}
	t.buf[t.next] = TraceEntry{At: at, Label: label}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

// Entries returns the recorded events, oldest first.
func (t *Tracer) Entries() []TraceEntry {
	if !t.full {
		out := make([]TraceEntry, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]TraceEntry, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// String renders the trace one event per line.
func (t *Tracer) String() string {
	var b strings.Builder
	for _, e := range t.Entries() {
		fmt.Fprintf(&b, "%12s  %s\n", e.At, e.Label)
	}
	return b.String()
}

// SetTracer installs (or with nil removes) an event tracer as the
// engine lane's execution observer.
func (e *Engine) SetTracer(t *Tracer) {
	if t == nil {
		e.ln.probe = nil
		return
	}
	e.ln.probe = func(_ int, _ ActorID, at time.Duration, label string) { t.record(at, label) }
}
