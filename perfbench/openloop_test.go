package main

import (
	"sort"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request is
// served; overshoot models timer slop on every sleep.
type fakeClock struct {
	t         time.Duration
	overshoot time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t + c.overshoot
	}
}

// serve returns a send function whose requests take service each,
// except request stallAt, which takes stall.
func (c *fakeClock) serve(service time.Duration, stallAt int, stall time.Duration) func(int) {
	return func(i int) {
		if i == stallAt {
			c.t += stall
		} else {
			c.t += service
		}
	}
}

func latenciesMS(reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = ms(r.latency())
	}
	sort.Float64s(out)
	return out
}

// At R = 1000/s, a 50 ms stall on request 100 delays the 49 requests
// due during it: request 100+k waits 50-k ms. Timed from the send, only
// the stalled request would look slow.
func TestOpenLoopStallShowsInDueTimeLatency(t *testing.T) {
	c := &fakeClock{}
	reqs := openLoop(c, 1000, time.Second, c.serve(0, 100, 50*time.Millisecond))
	if len(reqs) != 1000 {
		t.Fatalf("%d requests in 1 s at 1000/s, want 1000", len(reqs))
	}
	for k := 0; k < 50; k++ {
		want := time.Duration(50-k) * time.Millisecond
		if got := reqs[100+k].latency(); got != want {
			t.Errorf("request %d: latency %v, want %v", 100+k, got, want)
		}
	}
	lat := latenciesMS(reqs)
	// 950 zero latencies, then 1..50 ms: nearest-rank p99 is the 990th.
	if p99, p50, top := percentile(lat, 99), percentile(lat, 50), percentile(lat, 100); p99 != 40 || p50 != 0 || top != 50 {
		t.Errorf("p50/p99/max = %v/%v/%v ms, want 0/40/50", p50, p99, top)
	}
	var fromSend int
	for _, r := range reqs {
		if r.Done-r.Issued > 0 {
			fromSend++
		}
		if r.Late != 0 {
			t.Fatalf("request due %v: generator late %v on an exact clock", r.Due, r.Late)
		}
	}
	if fromSend != 1 {
		t.Errorf("%d requests slow when timed from the send, want only the stalled one", fromSend)
	}
}

// Timer slop shows as generator lateness on every request that had to
// wait for its due time, and never on one sent straight after a busy
// connection freed up (or on the first, due at once).
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	c := &fakeClock{overshoot: 200 * time.Microsecond}
	reqs := openLoop(c, 1000, 200*time.Millisecond, c.serve(100*time.Microsecond, 50, 20*time.Millisecond))
	var late, prompt int
	for i, r := range reqs {
		switch r.Late {
		case 200 * time.Microsecond:
			late++
		case 0:
			prompt++
			if i != 0 && (i <= 50 || r.Issued <= r.Due) {
				t.Errorf("request %d: no slop but it was neither first nor behind the stall", i)
			}
		default:
			t.Errorf("request %d: late %v, want 0 or 200µs", i, r.Late)
		}
	}
	// The stall backs up the requests due in the 20 ms after request
	// 50's send; each takes 0.1 ms, so the backlog clears after ~20.
	if prompt < 15 || prompt > 25 || late+prompt != len(reqs) {
		t.Errorf("%d prompt and %d late requests of %d", prompt, late, len(reqs))
	}
	if p := percentile(latenciesMS(reqs), 99); p < 15 {
		t.Errorf("p99 latency %v ms, want the stall backlog to show", p)
	}
}
