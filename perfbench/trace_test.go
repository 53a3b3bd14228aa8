package main

import "testing"

// fakeTracer returns a tracer whose clock reads the given value.
func fakeTracer(now *int64) *tracer {
	return &tracer{now: func() int64 { return *now }}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	var now int64
	tr := fakeTracer(&now)
	at := func(t int64) { now = t }

	// root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [30,60) (overlaps
	// a) and c [90,120) (runs past root's end).
	at(0)
	root := tr.begin("op.build", 0, 1)
	at(10)
	a := tr.begin("expander.run", root, 1)
	at(15)
	a1 := tr.begin("sim.round", a, 1)
	at(25)
	tr.end(a1)
	at(30)
	b := tr.begin("wft.run", root, 1)
	at(40)
	tr.end(a)
	at(60)
	tr.end(b)
	at(90)
	c := tr.begin("graphx.spectral_gap", root, 1)
	at(100)
	tr.end(root)
	at(120)
	tr.end(c)

	spans := tr.snapshot()
	self := selfTimes(spans)
	want := map[int]int64{
		root: 100 - 50 - 10, // children cover [10,60) and [90,100)
		a:    30 - 10,
		a1:   10,
		b:    30,
		c:    30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d (%s): self %d, want %d", id, spans[id-1].Name, self[id], w)
		}
	}
	layers := layerSelf(spans, self)
	for l, w := range map[string]int64{"op": 40, "expander": 20, "sim": 10, "wft": 30, "graphx": 30} {
		if layers[l] != w {
			t.Errorf("layer %s: self %d, want %d", l, layers[l], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op.x", 0, 1)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
