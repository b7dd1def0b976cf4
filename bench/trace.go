package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent is the span that caused it (-1 for a root);
// spans of one workload share its name as identifier.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	SelfUs   float64 `json:"self_us"`
	start    time.Duration
	end      time.Duration
	children []int
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// is tracing switched off: begin and end cost one nil check, which is
// how the timed passes run. It is used from one goroutine only.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		start: time.Since(t.epoch),
	})
	if parent >= 0 {
		t.spans[parent].children = append(t.spans[parent].children, id)
	}
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// selfTime is the span's duration minus the part of that interval its
// child spans cover (overlapping children are counted once).
func (t *tracer) selfTime(id int) time.Duration {
	s := &t.spans[id]
	kids := make([][2]time.Duration, 0, len(s.children))
	for _, c := range s.children {
		lo, hi := t.spans[c].start, t.spans[c].end
		if lo < s.start {
			lo = s.start
		}
		if hi > s.end {
			hi = s.end
		}
		if hi > lo {
			kids = append(kids, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered, reach time.Duration
	reach = s.start
	for _, k := range kids {
		if k[0] > reach {
			reach = k[0]
		}
		if k[1] > reach {
			covered += k[1] - reach
			reach = k[1]
		}
	}
	return s.end - s.start - covered
}

// writeTrace stores every span, with its self time, as a JSON array.
func writeTrace(path string, tracers []*tracer) error {
	all := []span{}
	for _, t := range tracers {
		for i := range t.spans {
			s := t.spans[i]
			s.StartUs = float64(s.start) / 1e3
			s.EndUs = float64(s.end) / 1e3
			s.SelfUs = float64(t.selfTime(i)) / 1e3
			all = append(all, s)
		}
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
