package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it started and
// ended (seconds since the run began), and the span that caused it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a pass's top-level spans
	Pass   int     `json:"pass"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the spans of the traced passes in memory; they are
// written out once, when the run ends. A nil *tracer records nothing,
// which is how untraced passes run the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// startPass tags the spans that follow with pass number p.
func (t *tracer) startPass(p int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass = p
}

// total sums the durations, in seconds, of the closed spans of one
// name in the current pass.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var seconds float64
	for _, s := range t.spans {
		if s.Pass == t.pass && s.Name == name && s.End >= 0 {
			seconds += s.End - s.Start
		}
	}
	return seconds
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
