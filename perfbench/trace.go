package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"widx/internal/system"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a call into a layer's public function. Calls too frequent to keep
// one span each (an agent's Settle and GrantMem) are folded into one
// aggregate span per agent and method: Dur is then their summed duration
// and Calls their count.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // offset from the recorder's start
	Dur    time.Duration `json:"dur_ns"`
	Calls  uint64        `json:"calls"`
}

// recorder keeps a run's spans in memory; write saves them when the run
// ends. Spans nest by call order: a span begun while another is open is its
// child.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans begun and not yet ended
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name, Start: time.Since(r.t0), Calls: 1})
	r.open = append(r.open, id-1)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) time.Duration {
	i := r.open[len(r.open)-1]
	if r.spans[i].ID != id {
		panic("perfbench: spans ended out of order")
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[i].Dur = time.Since(r.t0) - r.spans[i].Start
	return r.spans[i].Dur
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, f func() error) (time.Duration, error) {
	id := r.begin(name)
	err := f()
	return r.end(id), err
}

// aggregate records calls already timed elsewhere as one child span of the
// innermost open span.
func (r *recorder) aggregate(name string, c callStats) {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.parent(), Name: name, Dur: c.dur, Calls: c.calls})
}

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return 0
	}
	return r.spans[r.open[len(r.open)-1]].ID
}

// selfTime is the span's duration minus the durations of its direct
// children.
func (r *recorder) selfTime(id int) time.Duration {
	self := r.spans[id-1].Dur
	for _, s := range r.spans {
		if s.Parent == id {
			self -= s.Dur
		}
	}
	return self
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// callStats counts calls and their summed host time.
type callStats struct {
	calls uint64
	dur   time.Duration
}

func (c *callStats) add(d time.Duration) {
	c.calls++
	c.dur += d
}

// tracingAgent is a pass-through system.Agent decorator that times the
// wrapped agent's Settle and GrantMem calls. It changes nothing the agent
// computes: every call is forwarded unchanged.
type tracingAgent struct {
	system.Agent
	settle, grant callStats
}

func (a *tracingAgent) Settle() error {
	t := time.Now()
	err := a.Agent.Settle()
	a.settle.add(time.Since(t))
	return err
}

func (a *tracingAgent) GrantMem() error {
	t := time.Now()
	err := a.Agent.GrantMem()
	a.grant.add(time.Since(t))
	return err
}
