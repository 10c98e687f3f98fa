package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ferrum/internal/obs"
)

// layerNames are the layers self time is attributed to. "bench" is the
// benchmark's own time between calls into the program.
var layerNames = []string{"harness", "fi", "machine", "ir", "prune", "compose", "journal", "bench"}

// span is one timed call into a layer.
type span struct {
	Name  string
	Layer string
	Start time.Time
	Dur   time.Duration
}

// tracer keeps the benchmark's spans in memory and holds the program's own
// observer, whose phase spans (build, golden, checkpoint.record, inject,
// prune, cell) are folded in when self time is computed.
type tracer struct {
	ob    *obs.Observer
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{ob: obs.New()} }

// begin opens a span; a nil tracer records nothing.
func (t *tracer) begin(name, layer string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		t.mu.Lock()
		t.spans = append(t.spans, span{name, layer, start, d})
		t.mu.Unlock()
	}
}

// all returns the benchmark's spans plus the program's, each assigned a
// layer.
func (t *tracer) all() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, s := range t.ob.Trace.Spans() {
		out = append(out, span{s.Name, obsLayer(s), s.Start, s.Dur})
	}
	return out
}

// obsLayer maps one of the program's phase spans onto a layer. Phase spans
// of IR-level campaign cells belong to the IR engine, those of assembly
// cells to the machine.
func obsLayer(s obs.Span) string {
	switch s.Name {
	case "golden", "checkpoint.record", "inject", "profile.run":
		if isIRCell(s.Cell) {
			return "ir"
		}
		return "machine"
	case "prune":
		return "prune"
	}
	return "harness"
}

// sum is the total duration of the spans named name, in seconds.
func (t *tracer) sum(name string) float64 {
	var d time.Duration
	for _, s := range t.all() {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d.Seconds()
}

// selfTimes attributes every instant to the innermost span covering it and
// sums the result per layer, in seconds. The load is serial, so spans nest:
// a span's self time is its duration minus what its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	spans := t.all()
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].Dur > spans[j].Dur
	})
	self := make([]time.Duration, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 && !end(spans[stack[len(stack)-1]]).After(s.Start) {
			stack = stack[:len(stack)-1]
		}
		self[i] = s.Dur
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			covered := s.Dur
			if pe := end(spans[p]); end(s).After(pe) {
				covered = pe.Sub(s.Start)
			}
			self[p] -= covered
		}
		stack = append(stack, i)
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Layer] += self[i].Seconds()
	}
	return out
}

func end(s span) time.Time { return s.Start.Add(s.Dur) }

// write stores the spans as Chrome trace_event JSON (loads in Perfetto),
// one row per layer.
func (t *tracer) write(path string) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	tid := map[string]int{}
	for i, l := range layerNames {
		tid[l] = i + 1
	}
	var evs []event
	for _, s := range t.all() {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid[s.Layer],
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
