package main

import (
	"runtime"
	"time"
)

// clock is the time source of the open-loop generator; tests drive it
// with a fake.
type clock interface {
	// now is the time since the run started.
	now() time.Duration
	// sleepUntil blocks until now() >= t (it may overshoot).
	sleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

// spinWindow is the stretch before a due time that wallClock spins
// through instead of sleeping: the runtime's timers can fire a
// millisecond or more late, which at lookupRate is half or more of the
// gap between requests.
const spinWindow = 2 * time.Millisecond

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// request is one open-loop request's timeline.
type request struct {
	// Due is when the schedule wanted the request sent, Issued when it
	// was sent, Done when its answer arrived.
	Due, Issued, Done time.Duration
	// Late is how far the generator itself fell behind: the time from
	// the moment the request could have been sent — its due time, or
	// the previous answer when the connection was still busy — to the
	// send. It stays near zero unless the client starves for CPU.
	Late time.Duration
}

// latency is the request's latency from its due time, so a stall
// counts against every request scheduled during it, not just the one
// that met it.
func (r request) latency() time.Duration { return r.Done - r.Due }

// openLoop sends request i at i/rate over one connection until the
// next due time reaches stop. A request due while the previous one is
// outstanding goes out as soon as that answer arrives: the schedule
// never waits for the system, only the connection does.
func openLoop(c clock, rate float64, stop time.Duration, send func(i int)) []request {
	var out []request
	var prevDone time.Duration
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due >= stop {
			return out
		}
		c.sleepUntil(due)
		issued := c.now()
		send(i)
		done := c.now()
		out = append(out, request{Due: due, Issued: issued, Done: done, Late: issued - max(due, prevDone)})
		prevDone = done
	}
}
