package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a workload's root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part of it its child spans
	// cover; filled by finish.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced repetitions run the same code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	stack []int // open spans of the driver goroutine, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span under the innermost open one and returns its id.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: t.now(), EndNs: -1})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span; spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (stack %v)", id, t.stack))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = t.now()
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	id := t.start(name)
	defer t.end(id)
	return f()
}

// child records an already finished interval as a child of the innermost
// open span (search generations, whose boundaries arrive through a
// callback).
func (t *tracer) child(name string, startNs, endNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload, StartNs: startNs, EndNs: endNs})
}

// finish computes self times and returns the spans. Every span must be
// closed.
func (t *tracer) finish() ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) != 0 {
		return nil, fmt.Errorf("bench: %d span(s) still open", len(t.stack))
	}
	out := make([]span, len(t.spans))
	copy(out, t.spans)
	children := make(map[int][]span)
	for _, s := range out {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		p := &out[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		// Union of the children's intervals, clipped to the parent.
		var covered int64
		at := p.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, at), min(k.EndNs, p.EndNs)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		p.SelfNs = p.EndNs - p.StartNs - covered
	}
	return out, nil
}

// dur returns the total duration, in seconds, of the closed spans called
// name, and how many there are.
func (t *tracer) dur(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= 0 {
			ns += s.EndNs - s.StartNs
			n++
		}
	}
	return float64(ns) / 1e9, n
}

// selfCover is the sum of every span's self time over the root span's
// duration: 1 when children tile their parents without overlap.
func selfCover(spans []span) float64 {
	var self, root int64
	for _, s := range spans {
		self += s.SelfNs
		if s.Parent < 0 {
			root += s.EndNs - s.StartNs
		}
	}
	if root == 0 {
		return 0
	}
	return float64(self) / float64(root)
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
