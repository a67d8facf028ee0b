package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one (-1 for
// a root). Times are nanoseconds since the tracer's epoch.
type Span struct {
	Name       string
	Start, End int64
	Parent     int32
	Req        uint64
}

// maxSpans bounds a traced run's memory; spans past it are counted, not
// kept.
const maxSpans = 1 << 21

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type Tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []Span
	dropped int
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now returns the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// At converts a wall-clock Unix-nanosecond stamp to the tracer clock.
func (t *Tracer) At(unixNs int64) int64 { return unixNs - t.epoch.UnixNano() }

// Add records a span and returns its index (-1 when over the cap).
func (t *Tracer) Add(name string, start, end int64, parent int32, req uint64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// Begin opens a span whose end is set later with Finish.
func (t *Tracer) Begin(name string, parent int32, req uint64) int32 {
	now := t.Now()
	return t.Add(name, now, now, parent, req)
}

// Finish closes a span opened with Begin.
func (t *Tracer) Finish(i int32) {
	if i < 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// LayerTime is one span name's total and self time.
type LayerTime struct {
	Name    string
	Spans   int
	TotalNs int64
	SelfNs  int64
}

// SelfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover (children
// running in parallel are counted once).
func SelfTimes(spans []Span) []LayerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	by := map[string]*LayerTime{}
	for i, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Spans++
		lt.TotalNs += d
		lt.SelfNs += d - covered(s, spans, children[int32(i)])
	}
	out := make([]LayerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent Span, spans []Span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// Write saves the spans under dir as JSON lines — a header naming the
// fields, then one array per span, its line number minus two being its
// index — and prints the self-time table. It returns the file path.
func (t *Tracer) Write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, lt := range SelfTimes(t.spans) {
		fmt.Printf("  layer %-22s spans=%-8d total=%12.6fs self=%12.6fs\n",
			lt.Name, lt.Spans, float64(lt.TotalNs)/1e9, float64(lt.SelfNs)/1e9)
	}
	if t.dropped > 0 {
		fmt.Printf("  spans over the %d cap (counted, not kept): %d\n", maxSpans, t.dropped)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, `{"fields":["name","start_ns","end_ns","parent","req"]}`)
	for _, s := range t.spans {
		fmt.Fprintf(w, "[%q,%d,%d,%d,%d]\n", s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
