package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Parent is the enclosing span
// (0 for none); spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: the module the
// call went into.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so timed runs share the traced code path at the
// cost of a nil check per call.
type tracer struct {
	now func() int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	origin := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(origin)) }}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelf sums self time by layer.
func layerSelf(spans []span, self map[int]int64) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// writeSpans writes the spans and the host stamp as one JSON document.
func writeSpans(path string, host hostInfo, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"host": host, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLayers are the layers the traced run reports self time for:
// the benchmark's own op spans plus each module it calls into.
var tracedLayers = []string{"op", "benign", "graphx", "expander", "sim", "wft", "overlay", "service"}

// runTraced runs every traced pipeline — the build replay, a churn
// pass and a serve load — so one traced run yields every per-layer
// metric, then reports each layer's self time.
func runTraced(cfg runConfig, rep *report) []span {
	tr := newTracer()
	for _, phase := range []func(runConfig, *tracer, *report){traceBuild, traceChurn, traceServe} {
		runtime.GC() // start each phase from a collected heap
		phase(cfg, tr, rep)
	}
	spans := tr.snapshot()
	self := layerSelf(spans, selfTimes(spans))
	fmt.Fprintln(os.Stderr, "layer       self time")
	for _, l := range tracedLayers {
		fmt.Fprintf(os.Stderr, "%-10s %10.1f ms\n", l, float64(self[l])/1e6)
		rep.set("self_ms."+l, float64(self[l])/1e6, "ms")
	}
	return spans
}
