package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval at a layer boundary: a call into a layer's
// public API made by the benchmark. Spans of one operation (an edit, a
// request batch, a commit wave) share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; write puts them on disk once the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary. A tracer belongs to one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// layerTime is the time spans of one name took: Total is their summed
// duration, Self subtracts the part of each span its children cover.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// times folds the spans by name. A span's self time is its duration minus
// the union of its children's intervals, clipped to the span.
func (t *tracer) times() map[string]layerTime {
	out := make(map[string]layerTime)
	if t == nil {
		return out
	}
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(children[i], s.Start, s.End))
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes every tracer's spans as one JSON document. Span ids
// (and Parent links) index into each goroutine's own list.
func writeSpans(path string, tracers map[string]*tracer) error {
	doc := make(map[string][]span, len(tracers))
	for name, t := range tracers {
		if t != nil {
			doc[name] = t.spans
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
