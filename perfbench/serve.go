package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"overlay"
	"overlay/internal/benchops"
	"overlay/internal/service"
)

const (
	// lookupRate is the open-loop lookup rate. A loopback lookup takes
	// ~0.25 ms, so one connection is busy about an eighth of the time
	// and queueing comes from epochs, not from the generator. At a rate
	// that keeps it busy half the time, a few percent of stolen CPU
	// spills the backlog behind each epoch into the lookup median.
	lookupRate = 500
	// epochEvery is the epoch POST period: each epoch holds the session
	// write lock for a measurable share of it.
	epochEvery = 400 * time.Millisecond
	// serveSetups is how many times a run boots a server and creates
	// the overlay; the last one serves the load.
	serveSetups = 5
)

// serveRig is an in-process overlayd on loopback hosting one overlay,
// with the client-side view of its membership.
type serveRig struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	id     string

	// members and nextID track the overlay's membership as the epochs
	// this client posted left it; pool is the lookup endpoint set.
	members []int
	nextID  int
	plan    *overlay.ChurnPlan
	epochs  int
	pool    endpointPool
}

// endpointPool is the set of ids lookups may name. A lookup holds the
// read lock from picking its endpoints until its answer arrives, so an
// epoch's leavers are removed only once no lookup naming them is in
// flight; joiners are added after their epoch commits.
type endpointPool struct {
	mu  sync.RWMutex
	ids []int
}

func (p *endpointPool) remove(gone []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ids = slices.DeleteFunc(p.ids, func(id int) bool {
		_, found := slices.BinarySearch(gone, id)
		return found
	})
}

func (p *endpointPool) add(ids []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ids = append(p.ids, ids...)
}

// oneConnClient is an HTTP client that uses a single connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// bootServe starts a server on loopback and creates the overlay the
// serve workload drives: n nodes on the fast path, measured epochs.
func bootServe(seed uint64) (*serveRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRig{
		srv:    service.New(service.Options{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		plan:   &overlay.ChurnPlan{Seed: seed, JoinFrac: 0.02, LeaveFrac: 0.02},
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	client := oneConnClient()
	defer client.CloseIdleConnections()
	body := fmt.Sprintf(`{"n": %d, "accounting": "measured", "seed": %d}`, buildN, seed)
	resp, err := client.Post(r.base+"/v1/overlays", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return r, err
	}
	var info struct {
		ID     string `json:"id"`
		NextID int    `json:"next_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return r, fmt.Errorf("create overlay: status %d: %v", resp.StatusCode, err)
	}
	r.id, r.nextID = info.ID, info.NextID
	if r.members, err = benchops.FetchMembers(client, r.base, r.id); err != nil {
		return r, err
	}
	r.pool.ids = slices.Clone(r.members)
	return r, nil
}

// close drains and stops the server and waits for it to exit.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, derr := r.srv.Drain(ctx)
	serr := r.hs.Shutdown(ctx)
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, serr)
}

// lookupOutcome is one lookup's client-side record.
type lookupOutcome struct {
	status int
	// problem is set when the answer was wrong: a 200 path that does
	// not run from→to, or a non-200 without a typed error body.
	problem string
}

// epochOutcome is one epoch POST's client-side record.
type epochOutcome struct {
	start, end time.Duration
	status     int
	rounds     int
	messages   int64
	problem    string
}

// loadResult is one load phase's records.
type loadResult struct {
	lookups  []request
	outcomes []lookupOutcome
	epochs   []epochOutcome
}

// load runs the serve traffic for d: open-loop lookups at lookupRate
// on one connection, and an epoch POST every epochEvery on a second.
func (r *serveRig) load(seed uint64, d time.Duration, tr *tracer, heap *heapPeak) loadResult {
	c := wallClock{origin: time.Now()}
	var res loadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := dialRaw(r.base)
		if err != nil {
			res.epochs = append(res.epochs, epochOutcome{problem: err.Error()})
			return
		}
		defer conn.close()
		for due := time.Duration(0); due < d; due += epochEvery {
			c.sleepUntil(due)
			res.epochs = append(res.epochs, r.postEpoch(conn, c, tr))
			heap.note()
		}
	}()

	conn, err := dialRaw(r.base)
	if err != nil {
		res.lookups = append(res.lookups, request{})
		res.outcomes = append(res.outcomes, lookupOutcome{problem: err.Error()})
		wg.Wait()
		return res
	}
	defer conn.close()
	rng := rand.New(rand.NewSource(int64(seed)))
	res.lookups = openLoop(c, lookupRate, d, func(i int) {
		r.pool.mu.RLock()
		defer r.pool.mu.RUnlock()
		from := r.pool.ids[rng.Intn(len(r.pool.ids))]
		to := r.pool.ids[rng.Intn(len(r.pool.ids))]
		id := tr.begin("service.lookup", 0, i+1)
		res.outcomes = append(res.outcomes, r.lookup(conn, from, to))
		tr.end(id)
	})
	wg.Wait()
	return res
}

// lookup sends one lookup and checks its answer.
func (r *serveRig) lookup(conn *rawConn, from, to int) lookupOutcome {
	status, body, err := conn.do(http.MethodGet, fmt.Sprintf("/v1/overlays/%s/lookup?from=%d&to=%d", r.id, from, to), nil)
	if err != nil {
		return lookupOutcome{status: status, problem: err.Error()}
	}
	return lookupOutcome{status: status, problem: checkLookup(status, body, from, to)}
}

// rawConn is an HTTP/1.1 client on one keep-alive connection that
// writes each request and reads its answer on the calling goroutine.
// net/http's Transport hands every request to a writer and a reader
// goroutine; on a 2-vCPU Xeon host those handoffs raised the lookup
// median at 500/s from 0.26 to 0.36 ms.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
}

// dialRaw connects to base, an http:// URL.
func dialRaw(base string) (*rawConn, error) {
	host := strings.TrimPrefix(base, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReader(c), host: host}, nil
}

// do sends one request with a JSON body (none when nil) and returns
// the answer's status and body.
func (rc *rawConn) do(method, path string, body []byte) (int, []byte, error) {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, rc.host)
	if body != nil {
		head += fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	if _, err := rc.c.Write(append([]byte(head+"\r\n"), body...)); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	return resp.StatusCode, answer, err
}

func (rc *rawConn) close() { rc.c.Close() }

// checkLookup validates a lookup answer: a 200 carries a path from
// `from` to `to`; anything else carries a typed error body.
func checkLookup(status int, body []byte, from, to int) string {
	if status != http.StatusOK {
		var e struct {
			Code string `json:"code"`
		}
		if json.Unmarshal(body, &e) != nil || e.Code == "" {
			return fmt.Sprintf("status %d without a typed error: %.200s", status, body)
		}
		return ""
	}
	var ok struct {
		Path []int `json:"path"`
	}
	if err := json.Unmarshal(body, &ok); err != nil {
		return fmt.Sprintf("undecodable lookup answer: %v", err)
	}
	if len(ok.Path) == 0 || ok.Path[0] != from || ok.Path[len(ok.Path)-1] != to {
		return fmt.Sprintf("lookup %d->%d answered path %v", from, to, ok.Path)
	}
	return ""
}

// postEpoch computes the next churn epoch client-side, retires its
// leavers from the lookup pool, POSTs it, and admits the joiners once
// it committed.
func (r *serveRig) postEpoch(conn *rawConn, c clock, tr *tracer) epochOutcome {
	joins, leaves := r.plan.Epoch(r.epochs, r.members, r.nextID)
	r.epochs++
	r.pool.remove(leaves)
	body, _ := json.Marshal(map[string][]int{"joins": joins, "leaves": leaves})
	out := epochOutcome{start: c.now()}
	id := tr.begin("service.epoch_post", 0, -r.epochs)
	status, answer, err := conn.do(http.MethodPost, fmt.Sprintf("/v1/overlays/%s/epochs", r.id), body)
	if err != nil {
		out.end = c.now()
		tr.end(id)
		out.problem = err.Error()
		return out
	}
	var verdict struct {
		Bill struct {
			Rounds   int   `json:"rounds"`
			Messages int64 `json:"messages"`
		} `json:"bill"`
	}
	out.end = c.now()
	tr.end(id)
	out.status = status
	if err := json.Unmarshal(answer, &verdict); status != http.StatusOK || err != nil {
		out.problem = fmt.Sprintf("epoch %d: status %d (%v): %.200s", r.epochs-1, status, err, answer)
		return out
	}
	out.rounds, out.messages = verdict.Bill.Rounds, verdict.Bill.Messages
	r.members = slices.DeleteFunc(r.members, func(id int) bool {
		_, found := slices.BinarySearch(leaves, id)
		return found
	})
	r.members = append(r.members, joins...)
	r.nextID += len(joins)
	r.pool.add(joins)
	return out
}

// serveFigures are one load phase's derived numbers.
type serveFigures struct {
	lookup, epochReq  summary
	clear, overlapped summary
	// epochWait is the median over epochs of the longest due-time
	// latency among the lookups that overlapped the epoch: the wait
	// one epoch's write lock imposes on the lookups queued behind it.
	epochWait         float64
	lateP99           float64
	rounds, messages  float64
	status            map[string]int
	attempted, failed int
	problems          []string
}

// figures classifies and summarizes a load phase.
func (res loadResult) figures() serveFigures {
	f := serveFigures{status: map[string]int{}}
	ivs := make([][2]time.Duration, 0, len(res.epochs))
	var reqMS, rounds, msgs []float64
	for _, e := range res.epochs {
		f.attempted++
		ivs = append(ivs, [2]time.Duration{e.start, e.end})
		f.status[strconv.Itoa(e.status)]++
		if e.problem != "" {
			f.failed++
			f.problems = append(f.problems, e.problem)
			continue
		}
		reqMS = append(reqMS, ms(e.end-e.start))
		rounds = append(rounds, float64(e.rounds))
		msgs = append(msgs, float64(e.messages))
	}
	var all, clear, over, late []float64
	waits := make([]float64, len(ivs))
	for i, q := range res.lookups {
		o := res.outcomes[i]
		f.attempted++
		f.status[strconv.Itoa(o.status)]++
		if o.status != http.StatusOK || o.problem != "" {
			f.failed++
			if o.problem != "" {
				f.problems = append(f.problems, o.problem)
			} else {
				f.problems = append(f.problems, fmt.Sprintf("lookup answered %d", o.status))
			}
			continue
		}
		l := ms(q.latency())
		all = append(all, l)
		late = append(late, ms(q.Late))
		if k := overlapping(ivs, q.Due, q.Done); k >= 0 {
			over = append(over, l)
			waits[k] = max(waits[k], l)
		} else {
			clear = append(clear, l)
		}
	}
	f.lookup = summarize(all, 99)
	f.epochWait = median(slices.DeleteFunc(waits, func(w float64) bool { return w == 0 }))
	f.epochReq = summarize(reqMS, 90)
	f.clear = summarize(clear, 99)
	f.overlapped = summarize(over, 99)
	f.lateP99 = summarize(late, 99).Tail
	f.rounds, f.messages = mean(rounds), mean(msgs)
	return f
}

// overlapping returns the index of the first interval of ivs that
// [lo, hi] meets, or -1. The intervals are in start order and disjoint
// (epochs are posted one at a time).
func overlapping(ivs [][2]time.Duration, lo, hi time.Duration) int {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i][1] > lo })
	if i < len(ivs) && ivs[i][0] < hi {
		return i
	}
	return -1
}

// record copies a phase's counts and failed checks into the report.
func (f serveFigures) record(rep *report) {
	rep.attempted += f.attempted
	rep.failed += f.failed
	for i, p := range f.problems {
		if i == 5 {
			rep.fail("... %d more failed serve checks", len(f.problems)-i)
			break
		}
		rep.fail("%s", p)
	}
}

// runServe boots the server serveSetups times (the setup metric),
// then drives the last one for the run's time.
func runServe(cfg runConfig, rep *report) {
	var setups []float64
	var rig *serveRig
	for i := range serveSetups {
		t := time.Now()
		r, err := bootServe(cfg.seed)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			rep.attempted++
			rep.failed++
			rep.fail("setup: %v", err)
			if r != nil {
				_ = r.close()
			}
			return
		}
		if i < serveSetups-1 {
			if err := r.close(); err != nil {
				rep.fail("server shutdown: %v", err)
			}
			continue
		}
		rig = r
	}
	heap := newHeapPeak()
	f := rig.load(cfg.seed, cfg.duration, nil, heap).figures()
	live := liveHeapMB()
	if err := rig.close(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	f.record(rep)
	rep.set("setup_s", median(setups), "s")
	rep.set("op_p50_ms", f.lookup.P50, "ms")
	rep.set("op_tail_ms", f.epochWait, "ms")
	rep.set("write_p50_ms", f.epochReq.P50, "ms")
	rep.set("write_rounds", f.rounds, "count")
	rep.set("write_msgs", f.messages, "count")
	rep.set("heap_live_mb", live, "MB")
	rep.note("heap_peak_mb", heap.mb())
	rep.note("lookup_ms", f.lookup)
	rep.note("epoch_lookup_wait_ms", f.epochWait)
	rep.note("epoch_req_ms", f.epochReq)
	rep.note("serve.lookup_ms.clear", f.clear)
	rep.note("serve.lookup_ms.overlapped", f.overlapped)
	rep.note("gen.late_ms.p99", f.lateP99)
	rep.note("serve.status", f.status)
	rep.note("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
}

// traceServeSeconds is each load phase's length in the traced run.
const traceServeSeconds = 4 * time.Second

// traceServe runs an untraced then a traced load phase on one server,
// then times the lookup path below TCP: the handler on a recorder, and
// RouteLookup on a locally created twin of the hosted session.
func traceServe(cfg runConfig, tr *tracer, rep *report) {
	rig, err := bootServe(cfg.seed)
	if err != nil {
		rep.attempted++
		rep.failed++
		rep.fail("setup: %v", err)
		if rig != nil {
			_ = rig.close()
		}
		return
	}
	heap := newHeapPeak()
	base := rig.load(cfg.seed, traceServeSeconds, nil, heap).figures()
	f := rig.load(cfg.seed+1, traceServeSeconds, tr, heap).figures()
	base.record(rep)
	f.record(rep)

	// The handler alone, on the same server, between epochs.
	const calls = 2000
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	ids := rig.pool.ids
	h := rig.srv.Handler()
	var handlerUS []float64
	for range calls {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/overlays/%s/lookup?from=%d&to=%d", rig.id, from, to), nil)
		w := httptest.NewRecorder()
		id := tr.begin("service.lookup_handler", 0, 0)
		t := time.Now()
		h.ServeHTTP(w, req)
		handlerUS = append(handlerUS, float64(time.Since(t))/float64(time.Microsecond))
		tr.end(id)
		if msg := checkLookup(w.Code, w.Body.Bytes(), from, to); msg != "" || w.Code != http.StatusOK {
			rep.fail("handler lookup: status %d %s", w.Code, msg)
			break
		}
	}
	if err := rig.close(); err != nil {
		rep.fail("server shutdown: %v", err)
	}

	// RouteLookup on a session created the way the server creates one.
	opts := overlay.Options{Seed: cfg.seed}
	built, err := overlay.BuildTree(benchops.Line(buildN), &opts)
	if err != nil {
		rep.fail("local twin build: %v", err)
		return
	}
	sess, err := overlay.Open(built, &overlay.SessionOptions{Accounting: overlay.Measured, Build: opts})
	if err != nil {
		rep.fail("local twin open: %v", err)
		return
	}
	var routeUS []float64
	for i := range calls {
		from, to := rng.Intn(buildN), rng.Intn(buildN)
		id := tr.begin("overlay.route_lookup", 0, i+1)
		t := time.Now()
		path, err := sess.RouteLookup(from, to)
		routeUS = append(routeUS, float64(time.Since(t))/float64(time.Microsecond))
		tr.end(id)
		if err != nil || path[0] != from || path[len(path)-1] != to {
			rep.fail("local RouteLookup %d->%d: %v %v", from, to, path, err)
			break
		}
	}

	rep.set("service.lookup_handler_us", median(handlerUS), "us")
	rep.set("overlay.route_lookup_us", median(routeUS), "us")
	rep.set("serve.lookup_ms.clear", f.clear.P50, "ms")
	rep.set("serve.lookup_ms.overlapped", f.overlapped.P50, "ms")
	rep.set("serve.status.200", float64(f.status["200"]), "count")
	rep.set("serve.status.other", float64(f.attempted-f.status["200"]), "count")
	rep.set("gen.late_ms.p99", f.lateP99, "ms")
	rep.set("trace.overhead_ms.serve", f.lookup.P50-base.lookup.P50, "ms")
	rep.note("lookup_traced_ms", f.lookup)
	rep.note("lookup_untraced_ms", base.lookup)
	rep.note("epoch_req_ms", f.epochReq)
	rep.note("serve.status", f.status)
}
