package main

// The traced run's span store. Spans are recorded from the benchmark's
// own files only — around each public call into a layer and inside the
// Payload/OnDeliver/invariant callbacks the benchmark itself supplies —
// kept in memory for the last traced unit of each workload, and written
// out once at exit (-spans).
//
// Concurrency follows the actor discipline instead of a lock: every
// goroutine that records (a shard worker running one node's callbacks,
// one flood client) appends to a lane it alone owns, and the driver
// adopts the lanes under their parent span after the goroutines have
// joined.

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// A span is one timed interval at a layer boundary. Name is
// "<layer>.<operation>"; Parent is the span that caused it (-1 for a
// root); spans of one timed unit share Unit.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// lane is a single-goroutine span buffer. Its spans have no ID or
// parent until a recorder adopts them.
type lane struct {
	rec   *recorder
	spans []span
}

// add records one finished interval.
func (l *lane) add(name string, start, end time.Time) {
	l.spans = append(l.spans, span{Name: name, Start: l.rec.ns(start), End: l.rec.ns(end)})
}

// recorder holds the spans of one traced workload run. A nil recorder
// means tracing is off: workloads then install their bare callbacks, so
// the untraced run pays for no clock reads.
type recorder struct {
	epoch time.Time
	unit  int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextUnit starts a traced unit and drops the spans of the one before:
// the ledger reads the last traced unit only, and a whole run's callback
// spans would grow the heap the units are timed on.
func (r *recorder) nextUnit() {
	r.unit++
	r.spans = r.spans[:0]
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// lane returns a fresh buffer for one recording goroutine (or one
// node's callbacks).
func (r *recorder) lane() *lane { return &lane{rec: r} }

// begin opens a span on the driver goroutine and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Unit: r.unit, Start: r.ns(time.Now())})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) { r.spans[id].End = r.ns(time.Now()) }

// adopt moves the lanes' spans under parent. Call it only after the
// goroutines that wrote the lanes have joined.
func (r *recorder) adopt(parent int, lanes ...*lane) {
	for _, l := range lanes {
		for _, s := range l.spans {
			s.ID, s.Parent, s.Unit = len(r.spans), parent, r.unit
			r.spans = append(r.spans, s)
		}
		l.spans = l.spans[:0]
	}
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfSeconds returns each layer's self time over the spans of one
// unit: a span's duration minus the part of it its children cover
// (children that overlap, as on two shards, are counted once).
func (r *recorder) selfSeconds(unit int) map[string]float64 {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Unit == unit && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		if s.Unit != unit {
			continue
		}
		self[layerOf(s.Name)] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	return self
}

// covered returns how many nanoseconds of p the union of kids covers.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := p.Start
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, p.End)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// busySeconds returns the summed duration of the unit's spans with the
// given name (summed, so two shards busy at once count twice — a busy
// time, not a wall time).
func (r *recorder) busySeconds(unit int, name string) float64 {
	var sec float64
	for _, s := range r.spans {
		if s.Unit == unit && s.Name == name {
			sec += float64(s.End-s.Start) / 1e9
		}
	}
	return sec
}

// writeSpans writes every recorded span as one JSON document.
func writeSpans(path string, byWorkload map[string][]span) error {
	raw, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
