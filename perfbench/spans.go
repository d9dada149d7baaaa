package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/server"
)

// span is one timed call the benchmark made into a layer. Spans of one
// query share its stream index; Shard and QID name the engine's decision
// (and its trace record) when the call returned a reply.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Query  int64  `json:"query"` // stream index; -1 when not per query
	Shard  int    `json:"shard,omitempty"`
	QID    int64  `json:"qid,omitempty"`
}

func (s *span) nanos() int64 { return s.End - s.Start }

// maxSpans bounds a traced run's memory; later spans are counted, not
// kept.
const maxSpans = 1 << 20

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// log records nothing, which is how untraced runs pay for none of it.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span id, so a parent can be filed after its children.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) put(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.ID == 0 {
		l.nextID++
		s.ID = l.nextID
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

func (l *spanLog) rel(t time.Time) int64 { return t.Sub(l.t0).Nanoseconds() }

func (l *spanLog) add(name string, parent int64, start, end time.Time, query int64) {
	if l == nil {
		return
	}
	l.put(span{Parent: parent, Name: name, Start: l.rel(start), End: l.rel(end), Query: query})
}

func (l *spanLog) addReply(name string, start, end time.Time, query int64, resp server.Response) {
	if l == nil {
		return
	}
	l.put(span{Name: name, Start: l.rel(start), End: l.rel(end), Query: query, Shard: resp.Shard, QID: resp.QueryID})
}

// byName returns the spans named name.
func (l *spanLog) byName(name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfNanos is each span's duration minus the part its children cover,
// summed per span name.
func (l *spanLog) selfNanos() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.nanos()
		}
	}
	out := make(map[string]int64)
	for _, s := range l.spans {
		self := s.nanos() - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
