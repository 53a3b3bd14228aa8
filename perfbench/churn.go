package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"overlay"
	"overlay/internal/benchops"
)

// churnEpochs is the length of one churn pass. Every pass replays the
// same schedule from a fresh session, so passes must agree exactly.
const churnEpochs = 100

// churnSetups is the fewest setups a churn run times; passes beyond it
// add their own.
const churnSetups = 3

// churnRig is one churn pass's session with its maintained workloads.
type churnRig struct {
	sess  *overlay.Session
	works []maintainedWork
	comp  *overlay.MaintainedComponents
	st    *overlay.MaintainedSpanningTree
	mis   *overlay.MaintainedMIS
	plan  *overlay.ChurnPlan
	// fastBuild is the setup's fast-path BuildTree time.
	fastBuild time.Duration
}

// maintainedWork is one Maintained* workload with its span name.
type maintainedWork struct {
	name string
	w    interface {
		Sync() overlay.WorkloadBill
		ScratchBill() overlay.WorkloadBill
	}
}

// derivedViews are the four Section 1.4 views an epoch op reads.
var derivedViews = []struct {
	name string
	read func(*overlay.Session) [][2]int
}{
	{"ring", (*overlay.Session).Ring},
	{"chord", (*overlay.Session).Chord},
	{"hypercube", (*overlay.Session).Hypercube},
	{"debruijn", (*overlay.Session).DeBruijn},
}

// setupChurn builds the line on the fast path and opens the measured
// session the churn workload drives: message-level repair with two
// patch retries under a delay-only fault plan, plus the three
// maintained workloads.
func setupChurn(seed uint64, tr *tracer) (*churnRig, error) {
	root := tr.begin("op.setup", 0, 0)
	defer tr.end(root)
	g := benchops.Line(buildN)
	t := time.Now()
	id := tr.begin("overlay.build_fast", root, 0)
	res, err := overlay.BuildTree(g, &overlay.Options{Seed: seed})
	tr.end(id)
	rig := &churnRig{fastBuild: time.Since(t)}
	if err != nil {
		return nil, fmt.Errorf("fast-path build: %w", err)
	}
	id = tr.begin("overlay.open", root, 0)
	defer tr.end(id)
	rig.sess, err = overlay.Open(res, &overlay.SessionOptions{
		Accounting:   overlay.Measured,
		PatchRetries: 2,
		Build: overlay.Options{
			Seed:         seed,
			MessageLevel: true,
			Faults:       &overlay.FaultPlan{Seed: seed, DelayProb: 0.05, DelayMax: 3},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	wopt := &overlay.MaintainedOptions{Seed: seed}
	if rig.comp, err = overlay.OpenMaintainedComponents(rig.sess, wopt); err != nil {
		return nil, err
	}
	if rig.st, err = overlay.OpenMaintainedSpanningTree(rig.sess, wopt); err != nil {
		return nil, err
	}
	if rig.mis, err = overlay.OpenMaintainedMIS(rig.sess, wopt); err != nil {
		return nil, err
	}
	rig.works = []maintainedWork{{"components", rig.comp}, {"spanning_tree", rig.st}, {"mis", rig.mis}}
	rig.plan = &overlay.ChurnPlan{Seed: seed, Epochs: churnEpochs, JoinFrac: 0.02, LeaveFrac: 0.02}
	return rig, nil
}

// epochStat is one epoch op's measurements.
type epochStat struct {
	wall, apply, fill time.Duration
	sync              [3]time.Duration
	rounds, attempts  int
	members           int
	messages, delays  int64
	mallocs           uint64
	patch             bool
	// incremental and scratch are the workloads' sync messages and
	// what from-scratch recomputes would have cost (traced runs only).
	incremental, scratch int64
	// cachedReadNS is the mean cached derived-view read (traced runs
	// only).
	cachedReadNS float64
}

// same reports whether two passes' epochs did identical protocol work.
func (a epochStat) same(b epochStat) bool {
	return a.rounds == b.rounds && a.messages == b.messages && a.delays == b.delays && a.attempts == b.attempts
}

// epoch runs epoch op e: ApplyEpoch, a Sync of each maintained
// workload, then the first read of each derived view.
func (r *churnRig) epoch(e int, tr *tracer) (epochStat, error) {
	var st epochStat
	joins, leaves := r.plan.Epoch(e, r.sess.Members(), r.sess.NextID())
	op := e + 1
	root := tr.begin("op.epoch", 0, op)
	t0 := time.Now()
	m0 := mallocs()
	id := tr.begin("overlay.apply_epoch", root, op)
	bill, err := r.sess.ApplyEpoch(joins, leaves)
	tr.end(id)
	st.apply = time.Since(t0)
	st.mallocs = mallocs() - m0
	if err != nil {
		tr.end(root)
		return st, fmt.Errorf("epoch %d: %w", e, err)
	}
	st.rounds, st.attempts, st.members = bill.Rounds, bill.Attempts, bill.Members
	st.messages, st.delays = bill.Messages, bill.FaultDelays
	st.patch = !bill.Rebuilt && bill.Joined+bill.Left > 0
	for i, w := range r.works {
		t := time.Now()
		id := tr.begin("overlay.sync."+w.name, root, op)
		wb := w.w.Sync()
		tr.end(id)
		st.sync[i] = time.Since(t)
		st.incremental += wb.Messages
	}
	t := time.Now()
	edges := 0
	for _, v := range derivedViews {
		id := tr.begin("overlay.derived."+v.name, root, op)
		edges += len(v.read(r.sess))
		tr.end(id)
	}
	st.fill = time.Since(t)
	st.wall = time.Since(t0)
	tr.end(root)
	if edges == 0 {
		return st, fmt.Errorf("epoch %d: empty derived views", e)
	}
	if tr != nil {
		for _, w := range r.works {
			st.scratch += w.w.ScratchBill().Messages
		}
		const reads = 8
		t := time.Now()
		for range reads {
			for _, v := range derivedViews {
				_ = v.read(r.sess)
			}
		}
		st.cachedReadNS = float64(time.Since(t)) / float64(reads*len(derivedViews))
	}
	return st, nil
}

// pass runs the full epoch schedule on the rig, stopping at the first
// failed epoch.
func (r *churnRig) pass(tr *tracer, rep *report, heap *heapPeak) []epochStat {
	stats := make([]epochStat, 0, churnEpochs)
	for e := range churnEpochs {
		st, err := r.epoch(e, tr)
		rep.attempted++
		heap.note()
		if err != nil {
			rep.failed++
			rep.fail("%v", err)
			return stats
		}
		stats = append(stats, st)
	}
	if err := r.checkOracles(); err != nil {
		rep.fail("after epoch %d: %v", churnEpochs-1, err)
	}
	return stats
}

// runChurn times passes of back-to-back churn epochs, each pass from a
// freshly set-up session, until the run's time is spent (at least two
// passes, so the exact-repeat check always has a pair).
func runChurn(cfg runConfig, rep *report) {
	heap := newHeapPeak()
	var setups []float64
	var all, ref []epochStat
	var spent time.Duration
	var rig *churnRig
	for p := 0; p < 2 || spent < cfg.duration; p++ {
		t := time.Now()
		var err error
		rig, err = setupChurn(cfg.seed, nil)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			rep.attempted++
			rep.failed++
			rep.fail("setup: %v", err)
			return
		}
		stats := rig.pass(nil, rep, heap)
		if len(stats) < churnEpochs {
			return
		}
		if p == 0 {
			ref = stats
		} else {
			for e := range stats {
				if !stats[e].same(ref[e]) {
					rep.fail("pass %d epoch %d: rounds/messages/delays/attempts %d/%d/%d/%d, pass 0 had %d/%d/%d/%d",
						p, e, stats[e].rounds, stats[e].messages, stats[e].delays, stats[e].attempts,
						ref[e].rounds, ref[e].messages, ref[e].delays, ref[e].attempts)
					break
				}
			}
		}
		for _, st := range stats {
			spent += st.wall
		}
		all = append(all, stats...)
	}
	for len(setups) < churnSetups {
		t := time.Now()
		if _, err := setupChurn(cfg.seed, nil); err != nil {
			rep.fail("setup: %v", err)
			return
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	walls := collect(all, func(s epochStat) float64 { return ms(s.wall) })
	s := summarize(walls, 90)
	// The reported tail is the median of the passes' own p90s, so a
	// burst of stolen CPU during one pass does not set it.
	var passP90 []float64
	for p := 0; p < len(walls); p += churnEpochs {
		passP90 = append(passP90, summarize(walls[p:p+churnEpochs], 90).Tail)
	}
	rounds := mean(collect(ref, func(s epochStat) float64 { return float64(s.rounds) }))
	rep.set("setup_s", median(setups), "s")
	rep.set("op_p50_ms", s.P50, "ms")
	rep.set("op_tail_ms", median(passP90), "ms")
	rep.set("write_p50_ms", s.P50, "ms")
	rep.set("write_rounds", rounds, "count")
	rep.set("write_msgs", mean(collect(ref, func(s epochStat) float64 { return float64(s.messages) })), "count")
	rep.set("heap_live_mb", liveHeapMB(), "MB")
	rep.note("heap_peak_mb", heap.mb())
	rep.note("epoch_ms", s)
	rep.note("epoch_pass_p90_ms", passP90)
	rep.note("epoch_rounds", rounds)
	rep.note("fault_delays_per_epoch", mean(collect(ref, func(s epochStat) float64 { return float64(s.delays) })))
	rep.note("passes", len(setups))
	rep.note("failed_frac", float64(rep.failed)/float64(rep.attempted))
	runtime.KeepAlive(rig)
}

// traceChurn runs one traced pass and one untraced pass (the overhead
// baseline, which must repeat the traced pass's protocol work exactly)
// and reports the session-side layers.
func traceChurn(cfg runConfig, tr *tracer, rep *report) {
	heap := newHeapPeak()
	rig, err := setupChurn(cfg.seed, tr)
	if err != nil {
		rep.attempted++
		rep.failed++
		rep.fail("setup: %v", err)
		return
	}
	traced := rig.pass(tr, rep, heap)
	if len(traced) < churnEpochs {
		return
	}
	base, err := setupChurn(cfg.seed, nil)
	if err != nil {
		rep.fail("setup: %v", err)
		return
	}
	untraced := base.pass(nil, rep, heap)
	if len(untraced) < churnEpochs {
		return
	}
	for e := range traced {
		if !traced[e].same(untraced[e]) {
			rep.fail("epoch %d: the traced pass did different protocol work than the untraced one", e)
			break
		}
	}
	get := func(f func(epochStat) float64) []float64 { return collect(traced, f) }
	apply := summarize(get(func(s epochStat) float64 { return ms(s.apply) }), 90)
	var commits, attempts, incr, scratch float64
	for _, s := range traced {
		commits++
		attempts += float64(s.attempts)
		if s.patch {
			incr += float64(s.incremental)
			scratch += float64(s.scratch)
		}
	}
	rep.set("fast.build_s", rig.fastBuild.Seconds(), "s")
	rep.set("sim.ns_per_node_round", median(get(func(s epochStat) float64 {
		return float64(s.apply) / float64(s.rounds*s.members)
	})), "ns")
	rep.set("sim.fault_delays_per_epoch", mean(get(func(s epochStat) float64 { return float64(s.delays) })), "count")
	rep.set("session.msgs_per_epoch", mean(get(func(s epochStat) float64 { return float64(s.messages) })), "count")
	rep.set("session.apply_ms.p50", apply.P50, "ms")
	rep.set("session.apply_ms.p90", apply.Tail, "ms")
	rep.set("session.attempts_per_epoch", attempts/commits, "count")
	rep.set("session.commit_ratio", commits/attempts, "ratio")
	rep.set("session.mallocs_per_epoch", median(get(func(s epochStat) float64 { return float64(s.mallocs) })), "count")
	for i, w := range rig.works {
		rep.set("maintained.sync_ms."+w.name, median(get(func(s epochStat) float64 { return ms(s.sync[i]) })), "ms")
	}
	rep.set("maintained.incremental_ratio", incr/scratch, "ratio")
	rep.set("derived.fill_ms", median(get(func(s epochStat) float64 { return ms(s.fill) })), "ms")
	rep.set("derived.read_ns", median(get(func(s epochStat) float64 { return s.cachedReadNS })), "ns")
	tracedP50 := median(get(func(s epochStat) float64 { return ms(s.wall) }))
	untracedP50 := median(collect(untraced, func(s epochStat) float64 { return ms(s.wall) }))
	rep.set("trace.overhead_ms.churn", tracedP50-untracedP50, "ms")
	rep.note("epoch_traced_p50_ms", tracedP50)
	rep.note("epoch_untraced_p50_ms", untracedP50)
}

// collect maps f over the epoch stats.
func collect(stats []epochStat, f func(epochStat) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}

// checkOracles compares every maintained result with a from-scratch
// recompute over the workload graph.
func (r *churnRig) checkOracles() error {
	members := r.comp.Members()
	if !reflect.DeepEqual(members, r.sess.Members()) {
		return fmt.Errorf("maintained members differ from the session's")
	}
	edges := r.comp.GraphEdges()
	if !reflect.DeepEqual(edges, r.st.GraphEdges()) || !reflect.DeepEqual(edges, r.mis.GraphEdges()) {
		return fmt.Errorf("maintained workload graphs diverged")
	}
	adj := adjacency(members, edges)
	if !reflect.DeepEqual(r.comp.Labels(), componentLabels(members, adj)) {
		return fmt.Errorf("component labels differ from a from-scratch recompute")
	}
	if !reflect.DeepEqual(r.st.Forest(), bfsForest(members, adj)) {
		return fmt.Errorf("spanning forest differs from a from-scratch recompute")
	}
	if !reflect.DeepEqual(r.mis.Set(), lexMIS(members, adj)) {
		return fmt.Errorf("MIS differs from a from-scratch recompute")
	}
	return nil
}

// adjacency builds sorted neighbor lists for the members.
func adjacency(members []int, edges [][2]int) map[int][]int {
	adj := make(map[int][]int, len(members))
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, v := range members {
		sort.Ints(adj[v])
	}
	return adj
}

// componentLabels labels each member with its component's smallest
// member.
func componentLabels(members []int, adj map[int][]int) map[int]int {
	labels := make(map[int]int, len(members))
	for _, root := range members { // ascending, so root is the minimum
		if _, ok := labels[root]; ok {
			continue
		}
		labels[root] = root
		for q := []int{root}; len(q) > 0; q = q[1:] {
			for _, nb := range adj[q[0]] {
				if _, ok := labels[nb]; !ok {
					labels[nb] = root
					q = append(q, nb)
				}
			}
		}
	}
	return labels
}

// bfsForest is the canonical spanning forest: one BFS tree per
// component from its smallest member over ascending adjacency, as
// sorted (u < v) edges.
func bfsForest(members []int, adj map[int][]int) [][2]int {
	seen := map[int]bool{}
	out := [][2]int{}
	for _, root := range members {
		if seen[root] {
			continue
		}
		seen[root] = true
		for q := []int{root}; len(q) > 0; q = q[1:] {
			u := q[0]
			for _, nb := range adj[u] {
				if !seen[nb] {
					seen[nb] = true
					out = append(out, [2]int{min(u, nb), max(u, nb)})
					q = append(q, nb)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// lexMIS is the lexicographically first maximal independent set: scan
// ascending, take a member unless a smaller neighbor was taken.
func lexMIS(members []int, adj map[int][]int) []int {
	in := map[int]bool{}
	var out []int
	for _, v := range members {
		ok := true
		for _, nb := range adj[v] {
			if nb < v && in[nb] {
				ok = false
				break
			}
		}
		if ok {
			in[v] = true
			out = append(out, v)
		}
	}
	return out
}
