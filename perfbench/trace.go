package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: start and end in ns since the recorder's origin, the span
// that caused it (0 for a root) and the request it belongs to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// layerTime is the per-name aggregate of a span set.
type layerTime struct {
	Name   string
	Count  int
	MeanUS float64 // mean span duration
	SelfUS float64 // mean duration minus the part covered by child spans
}

// selfTimes aggregates spans by name. Children of one parent are
// recorded sequentially, so their covered time is the sum of their
// durations, clipped to the parent.
func selfTimes(spans []span) []layerTime {
	child := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		lt.Count++
		lt.MeanUS += float64(d)
		lt.SelfUS += float64(max(0, d-min(d, child[s.ID])))
	}
	slices.Sort(names)
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		lt := agg[n]
		lt.MeanUS = us(lt.MeanUS / float64(lt.Count))
		lt.SelfUS = us(lt.SelfUS / float64(lt.Count))
		out = append(out, *lt)
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

func printLayerTimes(lts []layerTime) {
	for _, lt := range lts {
		fmt.Printf("span %-28s n=%-7d mean=%10.1fus self=%10.1fus\n", lt.Name, lt.Count, lt.MeanUS, lt.SelfUS)
	}
}
