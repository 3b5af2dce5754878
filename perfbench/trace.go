package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans nest: a span begun while another is open records it as its parent.
// Every span carries the id of the closed-loop operation (request) that
// caused it, so one operation's spans can be grouped.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's calls went into: the part of its name before
// the first dot ("core.partition" -> "core").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil *tracer or one with on == false records nothing, so the untraced
// path pays one branch per call. Not safe for concurrent use: only the
// benchmark's driving goroutine records spans.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned and gives its duration (0 when
// tracing is off).
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].dur()
}

// nextOp starts a new closed-loop operation: spans opened from here on
// carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the time its child
// spans cover. Children of one span are sequential (one driving goroutine),
// so the covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.layer()] += s.dur() - child[i]
	}
	return self
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
