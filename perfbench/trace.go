package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's origin; parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: make(map[string]int64)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// open starts a span whose end is filled in by close; it returns the
// span's id for children to name as their parent.
func (t *tracer) open(name string, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.ns(start), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.ns(end)
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent})
	t.mu.Unlock()
}

// count adds n to the named counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the summed duration and self time:
// a span's duration minus the part of it its children cover.
func selfTimes(spans []span) []selfStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfStat)
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[i])) / 1e6
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans, counters and self-time table as one JSON
// document under dir and returns the self-time table.
func (t *tracer) write(dir, name string) ([]selfStat, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return self, fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return self, fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Self   []selfStat       `json:"self"`
		Counts map[string]int64 `json:"counts"`
		Spans  []span           `json:"spans"`
	}{self, t.counts, t.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return self, fmt.Errorf("trace: write %s: %w", path, err)
	}
	return self, nil
}
