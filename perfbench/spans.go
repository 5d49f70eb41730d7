package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is 0 for a root span; IDs are unique within a run.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one run in memory. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured interval (used for intervals observed
// from outside, such as a job's running phase seen by polling).
func (t *tracer) add(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Run: t.run,
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	id := t.begin(name, parent)
	err := fn(id)
	t.end(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans appends spans to path as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one name: how many calls, and their
// summed duration and self time (duration minus the part of it covered
// by child spans).
type layerStat struct {
	Calls  int64
	TotalN int64
	SelfN  int64
}

func (s layerStat) meanSelfUS() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.SelfN) / float64(s.Calls) / 1e3
}

func (s layerStat) meanTotalMS() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.TotalN) / float64(s.Calls) / 1e6
}

// selfTimes aggregates spans by name. Children of one parent may overlap
// (concurrent cells), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) (map[string]layerStat, error) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerStat{}
	for _, s := range spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.Calls++
		st.TotalN += dur
		st.SelfN += dur - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = st
	}
	return out, nil
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs {
		if curHi < 0 || iv[0] > curHi {
			if curHi >= 0 {
				flush()
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	flush()
	return total
}
