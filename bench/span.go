package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call; nothing inside internal/ is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the same code path serves traced and untraced passes.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns the function that closes it, plus its id
// for use as a parent.
func (r *recorder) start(name string, parent, op int) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	t0 := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: t0})
	id = len(r.spans)
	r.mu.Unlock()
	return id, func() {
		t1 := time.Since(r.origin).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = t1
		r.mu.Unlock()
	}
}

// byName groups span durations (ms) by span name.
func (r *recorder) byName() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], s.ms())
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children are merged
// first, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		open := false
		for _, c := range iv {
			switch {
			case !open:
				curLo, curHi, open = c[0], c[1], true
			case c[0] <= curHi:
				if c[1] > curHi {
					curHi = c[1]
				}
			default:
				covered += curHi - curLo
				curLo, curHi = c[0], c[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums self time (ms) per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMs: selfByName(r.spans), Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
