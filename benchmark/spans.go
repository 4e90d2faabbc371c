package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of a traced run, recorded from the benchmark's
// own files around its calls into the program. Start and End are host
// seconds since the trace began; Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: hostNow()} }

// add records a span and returns its ID.
func (t *tracer) add(name, workload string, start, end time.Time, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Workload: workload, Parent: parent,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
	})
	return id
}

// endNow closes a span that was recorded while still open.
func (t *tracer) endNow(id int) { t.spans[id-1].End = secondsSince(t.origin) }

// selfTime is a span name's total duration minus the time its child spans
// cover.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) selfTimes() []selfTime {
	children := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	byName := make(map[string]*selfTime)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - children[s.ID]
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and the per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self_time"`
	}{t.spans, t.selfTimes()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
