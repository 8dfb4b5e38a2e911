package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's exported function. Spans of one request (a round, a read, a
// query, a setup) share Req; Parent is the id of the enclosing span (0 for
// a request's root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Time
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; write dumps them at exit.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() int64 { return t.reqs.Add(1) }

// begin opens a span under parent (nil for a request root).
func (t *tracer) begin(name string, req int64, parent *span) *span {
	s := &span{ID: t.ids.Add(1), Req: req, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	s.Start = time.Now()
	return s
}

func (t *tracer) end(s *span) *span {
	s.End = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// endAt closes s with times the caller took.
func (t *tracer) endAt(s *span, start, end time.Time) {
	s.Start, s.End = start, end
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the duration in ms of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as Chrome trace-event JSON (one track per
// request), viewable in chrome://tracing or Perfetto.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Req,
			TS:   float64(s.Start.Sub(t.t0)) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	t.mu.Unlock()
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
