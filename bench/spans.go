package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span identifies a recorded span; 0 is "no span" and what every method
// of the nil tracer returns, so untraced code paths carry no branches.
type span int

type spanRecord struct {
	ID      span   `json:"id"`
	Parent  span   `json:"parent"` // the span that caused it; 0 only for the root
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. The
// spans are recorded from the benchmark's own files, around the calls
// into each layer; spans inside the program are a later change.
type tracer struct {
	mu    sync.Mutex
	spans []spanRecord
	root  span
}

func newTracer(name string) *tracer {
	t := &tracer{}
	t.root = t.begin(name, 0)
	return t
}

func (t *tracer) begin(name string, parent span) span {
	if t == nil {
		return 0
	}
	return t.add(name, parent, time.Now().UnixNano(), -1)
}

// add records a span whose interval is already known (a flight record).
// Parent 0 means the run's root span.
func (t *tracer) add(name string, parent span, startNs, durNs int64) span {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.root
	}
	id := span(len(t.spans) + 1)
	t.spans = append(t.spans, spanRecord{ID: id, Parent: parent, Name: name, StartNs: startNs, DurNs: durNs})
	return id
}

func (t *tracer) end(s span) {
	if t == nil || s == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &t.spans[s-1]
	rec.DurNs = now - rec.StartNs
}

func (t *tracer) write(path string) error {
	t.end(t.root)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		V     int          `json:"v"`
		Spans []spanRecord `json:"spans"`
	}{1, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
