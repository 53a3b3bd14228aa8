package main

import (
	"net/http"
	"testing"
	"time"
)

// TestServeFiguresEpochWait checks how serve lookups are split by epoch:
// a lookup whose due-to-answer interval meets an epoch POST counts as
// overlapped and toward that epoch's wait, the longest such latency;
// the reported wait is the median over the epochs some lookup met.
func TestServeFiguresEpochWait(t *testing.T) {
	at := func(msec float64) time.Duration { return time.Duration(msec * float64(time.Millisecond)) }
	res := loadResult{epochs: []epochOutcome{
		{start: at(10), end: at(20), status: http.StatusOK},
		{start: at(40), end: at(70), status: http.StatusOK},
		{start: at(100), end: at(105), status: http.StatusOK},
		{start: at(150), end: at(151), status: http.StatusOK}, // no lookup meets it
	}}
	lookup := func(due, done float64) {
		res.lookups = append(res.lookups, request{Due: at(due), Issued: at(due), Done: at(done)})
		res.outcomes = append(res.outcomes, lookupOutcome{status: http.StatusOK})
	}
	lookup(0, 1)     // clear
	lookup(12, 21)   // epoch 0, waits 9
	lookup(14, 21.5) // epoch 0, waits 7.5
	lookup(45, 71)   // epoch 1, waits 26
	lookup(60, 72)   // epoch 1, waits 12
	lookup(101, 106) // epoch 2, waits 5
	lookup(120, 121) // clear

	f := res.figures()
	if f.epochWait != 9 {
		t.Errorf("epoch wait = %v ms, want 9 (median of 9, 26, 5)", f.epochWait)
	}
	if f.overlapped.N != 5 || f.clear.N != 2 {
		t.Errorf("overlapped/clear = %d/%d lookups, want 5/2", f.overlapped.N, f.clear.N)
	}
	if f.attempted != 11 || f.failed != 0 {
		t.Errorf("attempted/failed = %d/%d, want 11/0", f.attempted, f.failed)
	}
}
