package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// anyLevel matches spans of every level in tracer queries; noLevel marks a
// span that carries no ciphertext level.
const (
	anyLevel = -2
	noLevel  = -1
)

// span is one recorded interval: a call the benchmark made into a layer.
// Spans of one unit of work (one bootstrap iteration, one circuit, one
// job) share Req; Parent is the span that caused it (0 = root).
type span struct {
	ID, Parent, Req uint64
	Name            string
	Level           int
	Start, End      int64 // ns since the tracer started
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while it is on. Off, begin and end cost a
// branch. Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	on     bool
	t0     time.Time
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// spanRef is an open span; end closes it. The zero value is a no-op.
type spanRef struct {
	t      *tracer
	id     uint64
	parent uint64
	req    uint64
	name   string
	level  int
	start  time.Time
}

// begin opens a span under parent (the zero spanRef for a root).
func (t *tracer) begin(name string, parent spanRef, req uint64, level int) spanRef {
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return spanRef{}
	}
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return spanRef{t: t, id: id, parent: parent.id, req: req, name: name, level: level, start: time.Now()}
}

// end records the span and returns its duration (0 for a no-op span).
func (s spanRef) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.record(span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, Level: s.level,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0))})
	return now.Sub(s.start)
}

// child records a span measured elsewhere (a phase duration the library
// reports) as a child of parent starting at start.
func (t *tracer) child(name string, parent spanRef, start time.Time, d time.Duration) {
	if parent.t == nil {
		return
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := int64(start.Sub(t.t0))
	t.record(span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Level: noLevel, Start: s, End: s + int64(d)})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of every span with the given name
// at the given level (anyLevel for all).
func (t *tracer) durations(name string, level int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (level == anyLevel || s.Level == level) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// maxLevel returns the highest level recorded for name (noLevel if none).
func (t *tracer) maxLevel(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	best := noLevel
	for _, s := range t.spans {
		if s.Name == name && s.Level > best {
			best = s.Level
		}
	}
	return best
}

// residueFrac returns, over every span named root, the share of its time
// not covered by its direct children: 1 - sum(children)/sum(root).
func (t *tracer) residueFrac(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[uint64]bool{}
	var total, covered time.Duration
	for _, s := range t.spans {
		if s.Name == root {
			roots[s.ID] = true
			total += s.dur()
		}
	}
	for _, s := range t.spans {
		if roots[s.Parent] {
			covered += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(covered)/float64(total)
}

// layerSummary is one row of the self-time table.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Ms   float64 `json:"p50_ms"`
}

// summarize writes one JSON line to w: per span name, the count, total
// time, self time (total minus the time its child spans cover) and median.
func (t *tracer) summarize(w io.Writer) {
	t.mu.Lock()
	childTime := map[uint64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	rows := map[string]*layerSummary{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerSummary{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMs += ms(s.dur())
		r.SelfMs += ms(s.dur() - childTime[s.ID])
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	t.mu.Unlock()
	out := make([]layerSummary, 0, len(rows))
	for name, r := range rows {
		r.P50Ms = median(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	line, _ := json.Marshal(map[string]any{"trace_summary": out})
	fmt.Fprintln(w, string(line))
}
