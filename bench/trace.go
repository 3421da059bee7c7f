package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program under test. Times are nanoseconds since the trace
// began; Parent is the index of the span that caused this one (-1 for an
// operation's root span); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory and writes them out when the pass ends. A nil
// *tracer records nothing, so the untraced pass runs the same code with no
// span bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the id begin returns when tracing is off.
const noSpan = -1

// begin opens a span and returns its id for end and for children's parent.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAs closes a span under a name only known once it finished (a cache
// lookup's outcome, say).
func (t *tracer) endAs(id int, name string) {
	t.end(id)
	if t != nil && id != noSpan {
		t.mu.Lock()
		t.spans[id].Name = name
		t.mu.Unlock()
	}
}

// add records a span whose boundaries were observed elsewhere (httptrace
// callbacks report instants, not intervals).
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.t0).Nanoseconds(),
		End:    end.Sub(t.t0).Nanoseconds(),
		Parent: parent,
		Op:     op,
	})
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, op int, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

// childTimeLocked returns, per span, the time its direct children cover.
func (t *tracer) childTimeLocked() []int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	return child
}

// medianNS is the median duration, in nanoseconds, of the spans of one name
// (NaN when there are none).
func (t *tracer) medianNS(name string) float64 { return t.median(name, false) }

// medianSelfNS is medianNS over self times: each span's duration minus the
// part its direct children cover — the layer's own cost.
func (t *tracer) medianSelfNS(name string) float64 { return t.median(name, true) }

func (t *tracer) median(name string, self bool) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childTimeLocked()
	var xs []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d -= child[i]
		}
		xs = append(xs, float64(d))
	}
	return median(xs)
}

// selfTimes returns, per span name, the total self time of its spans.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childTimeLocked()
	self := map[string]int64{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write dumps the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		SelfNS map[string]int64 `json:"self_ns"`
		Spans  []span           `json:"spans"`
	}{self, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
