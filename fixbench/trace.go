package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval. Trace is the slide's query time (unix
// seconds) — the identifier alerts carry as Envelope.Slide — or 0 for
// spans that belong to no slide (set-up, operator requests).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// Busy, when set, is the time actually spent inside the calls an
	// aggregated span stands for (ingest.scan covers a whole slide's
	// Scan calls between its first start and last end).
	Busy int64 `json:"busy_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at exit.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, trace int64, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Trace: trace,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return id
}

// addBusy records an aggregated span with its busy time.
func (t *tracer) addBusy(name string, trace int64, start, end time.Time, busy time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Trace: trace,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Busy: int64(busy),
	})
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfRow is one line of a self-time table.
type selfRow struct {
	name  string
	count int
	self  time.Duration
}

// selfTimes computes, over the span trees rooted at the pipeline
// goroutine's top-level spans (roots), each span name's self time — its
// duration minus its children's — plus an explicit "unattributed" row
// holding the part of wall no root span covers. The rows sum to wall.
func selfTimes(spans []span, roots map[string]bool, wall time.Duration) []selfRow {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	acc := map[string]*selfRow{}
	var covered time.Duration
	var walk func(id int)
	walk = func(id int) {
		s := byID[id]
		self := s.dur()
		for _, k := range kids[id] {
			self -= byID[k].dur()
			walk(k)
		}
		r := acc[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			acc[s.Name] = r
		}
		r.count++
		r.self += self
	}
	for _, s := range spans {
		if s.Parent == 0 && roots[s.Name] {
			covered += s.dur()
			walk(s.ID)
		}
	}
	rows := make([]selfRow, 0, len(acc)+1)
	for _, r := range acc {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return append(rows, selfRow{name: "unattributed", self: wall - covered})
}

// printSelfTimes renders a self-time table with shares of wall.
func printSelfTimes(w io.Writer, workload string, rows []selfRow, wall time.Duration) {
	fmt.Fprintf(w, "self-time %s: pipeline goroutine wall %.3f s\n", workload, wall.Seconds())
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
		fmt.Fprintf(w, "  %-24s %6d spans %10.3f ms %6.1f%%\n", r.name, r.count,
			float64(r.self)/1e6, 100*float64(r.self)/float64(wall))
	}
	fmt.Fprintf(w, "  %-24s %6s       %10.3f ms (rows sum to wall)\n", "total", "", float64(sum)/1e6)
}

// spanNames lists the distinct span names, for the trace summary.
func spanNames(spans []span) string {
	seen := map[string]int{}
	for _, s := range spans {
		seen[s.Name]++
	}
	names := make([]string, 0, len(seen))
	for n, c := range seen {
		names = append(names, fmt.Sprintf("%s=%d", n, c))
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
