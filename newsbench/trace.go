package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark makes into a layer of the
// program. Spans of one request share the client span's id as Parent.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; a traced run writes them out at the
// end. A nil *tracer records nothing, so untraced runs pay one branch.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []*span
}

func (t *tracer) start(name string, parent uint64) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.next.Add(1), Parent: parent, Name: name, Start: time.Now()}
}

func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores an already-timed span.
func (t *tracer) record(name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := &span{ID: t.next.Add(1), Parent: parent, Name: name, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the durations of spans with the given name that started
// inside [from, to).
func (t *tracer) byName(name string, from, to time.Time) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name && !s.Start.Before(from) && s.Start.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
