package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"overlay"
	"overlay/internal/benchops"
	"overlay/internal/benign"
	"overlay/internal/expander"
	"overlay/internal/graphx"
	"overlay/internal/rng"
	"overlay/internal/sim"
	"overlay/internal/wft"
)

// buildN is the node count of every workload's input line. At 4096 a
// message-level build passes ~20.5M messages over 536 rounds with every
// node active: the dense phase.
const buildN = 4096

// buildSetups is how many times the build workload generates its
// input. One setup takes a fraction of a millisecond and the first ones
// pay for growing a fresh heap, so the median needs many.
const buildSetups = 200

// minBuilds is the fewest builds a run makes, so that the repeat check
// always has a pair to compare.
const minBuilds = 3

// runBuild times sequential fault-free message-level BuildTree runs
// over the line and checks that every build yields the same
// well-formed tree, rounds and messages.
func runBuild(cfg runConfig, rep *report) {
	var setups []float64
	var g *overlay.Graph
	for range buildSetups {
		t := time.Now()
		g = benchops.Line(buildN)
		setups = append(setups, time.Since(t).Seconds())
	}
	heap := newHeapPeak()
	opts := overlay.Options{Seed: cfg.seed, MessageLevel: true}
	var walls []float64
	var first *overlay.BuildResult
	deadline := time.Now().Add(cfg.duration)
	for len(walls) < minBuilds || time.Now().Before(deadline) {
		t := time.Now()
		res, err := overlay.BuildTree(g, &opts)
		wall := time.Since(t)
		rep.attempted++
		heap.note()
		if err == nil && res.Aborted {
			err = fmt.Errorf("aborted: %s", res.AbortReason)
		}
		if err != nil {
			rep.failed++
			rep.fail("build %d: %v", len(walls), err)
			return
		}
		walls = append(walls, ms(wall))
		if first == nil {
			first = res
			if err := checkTree(res.Tree, buildN); err != nil {
				rep.fail("build tree: %v", err)
			}
		} else if err := sameBuild(first, res); err != nil {
			rep.fail("build %d differs from build 0 at the same seed: %v", len(walls)-1, err)
		}
	}
	s := summarize(walls, 90)
	rep.set("setup_s", median(setups), "s")
	rep.set("op_p50_ms", s.P50, "ms")
	rep.set("op_tail_ms", s.Tail, "ms")
	rep.set("write_p50_ms", s.P50, "ms")
	rep.set("write_rounds", float64(first.Stats.Rounds), "count")
	rep.set("write_msgs", float64(first.Stats.Messages), "count")
	rep.set("heap_live_mb", liveHeapMB(), "MB")
	rep.note("heap_peak_mb", heap.mb())
	rep.note("build_ms", s)
	rep.note("build_rounds", first.Stats.Rounds)
	rep.note("build_messages", first.Stats.Messages)
	rep.note("failed_frac", float64(rep.failed)/float64(rep.attempted))
}

// sameBuild reports how b differs from a in rounds, messages or tree.
func sameBuild(a, b *overlay.BuildResult) error {
	if a.Stats.Rounds != b.Stats.Rounds || a.Stats.Messages != b.Stats.Messages {
		return fmt.Errorf("rounds/messages %d/%d vs %d/%d", a.Stats.Rounds, a.Stats.Messages, b.Stats.Rounds, b.Stats.Messages)
	}
	if a.Tree.Root != b.Tree.Root || !slices.Equal(a.Tree.Parent, b.Tree.Parent) || !slices.Equal(a.Tree.Rank, b.Tree.Rank) {
		return fmt.Errorf("trees differ")
	}
	return nil
}

// checkTree verifies a well-formed tree over n nodes from its parent
// array alone: every node present once, one root, degree <= 3 and
// depth <= ⌈log₂ n⌉.
func checkTree(t *overlay.Tree, n int) error {
	if t == nil || len(t.Parent) != n || len(t.Rank) != n || len(t.NodeAt) != n {
		return fmt.Errorf("tree does not cover all %d nodes", n)
	}
	seen := make([]bool, n)
	for r, v := range t.NodeAt {
		if v < 0 || v >= n || seen[v] || t.Rank[v] != r {
			return fmt.Errorf("rank %d holds node %d twice or inconsistently", r, v)
		}
		seen[v] = true
	}
	deg := make([]int, n)
	for v, p := range t.Parent {
		if p < 0 || p >= n {
			return fmt.Errorf("node %d has parent %d out of range", v, p)
		}
		if p == v {
			if v != t.Root {
				return fmt.Errorf("node %d is a second root", v)
			}
			continue
		}
		deg[v]++
		deg[p]++
	}
	maxDepth := bits.Len(uint(n - 1)) // ⌈log₂ n⌉ for n >= 2
	for v := range n {
		if deg[v] > 3 {
			return fmt.Errorf("node %d has degree %d", v, deg[v])
		}
		d := 0
		for u := v; u != t.Root; u = t.Parent[u] {
			if d++; d > maxDepth {
				return fmt.Errorf("node %d is deeper than %d (or on a cycle)", v, maxDepth)
			}
		}
	}
	return nil
}

// traceBuild runs BuildTree untraced, then replays its message-level
// pipeline call by call through the packages' public functions, with a
// span around each, and reports the build layers' metrics. The run
// fails unless the replay's rounds, messages, tree and spectral gap
// equal BuildTree's at the same seed.
func traceBuild(cfg runConfig, tr *tracer, rep *report) {
	const op = 1
	n := buildN

	// The untraced reference build: the overhead baseline and the
	// oracle the replay must match.
	runtime.GC()
	t := time.Now()
	res, err := overlay.BuildTree(benchops.Line(n), &overlay.Options{Seed: cfg.seed, MessageLevel: true})
	untraced := time.Since(t)
	rep.attempted++
	if err == nil && res.Aborted {
		err = fmt.Errorf("aborted: %s", res.AbortReason)
	}
	if err != nil {
		rep.failed++
		rep.fail("reference BuildTree: %v", err)
		return
	}
	if err := checkTree(res.Tree, n); err != nil {
		rep.fail("reference tree: %v", err)
	}

	runtime.GC()
	t0 := time.Now()
	root := tr.begin("op.build", 0, op)
	call := func(name string, fn func()) time.Duration {
		id := tr.begin(name, root, op)
		t := time.Now()
		fn()
		d := time.Since(t)
		tr.end(id)
		return d
	}

	dg := graphx.NewDigraph(n)
	for i := 0; i+1 < n; i++ {
		dg.AddEdge(i, i+1)
	}
	connected := false
	call("graphx.undirected_connected", func() { connected = dg.Undirected().IsConnected() })
	if !connected {
		rep.fail("replay: input line is not connected")
		return
	}
	bp := benign.Defaults(n, dg.MaxDegree())
	var m *graphx.Multi
	prepare := call("benign.prepare", func() { m, err = benign.Prepare(dg, bp) })
	if err != nil {
		rep.fail("replay: benign.Prepare: %v", err)
		return
	}
	ep := expander.DefaultParams(n)
	ep.Delta = bp.Delta

	// Expander phase, one RunOne per round. Engine.Run stops once no
	// node is active and nothing is in flight; with caps off and no
	// fault plane, "nothing in flight" means the last round sent no
	// message, which the metrics show.
	var eng1 *sim.Engine
	var protos1 []*expander.Protocol
	call("expander.build_engine", func() { eng1, protos1 = expander.BuildEngine(m, ep, sim.Config{Seed: cfg.seed}) })
	expRun := tr.begin("expander.run", root, op)
	tExp := time.Now()
	var roundUS, active []float64
	maxRounds := ep.Evolutions*(ep.Ell+2) + 1 + 4
	lastSent := int64(-1)
	for r := 0; r < maxRounds; r++ {
		if eng1.NumActive() == 0 && lastSent == 0 {
			break
		}
		active = append(active, float64(eng1.NumActive())/float64(n))
		before := eng1.Metrics().TotalMessages
		id := tr.begin("sim.round", expRun, op)
		t := time.Now()
		eng1.RunOne()
		roundUS = append(roundUS, float64(time.Since(t))/float64(time.Microsecond))
		tr.end(id)
		lastSent = eng1.Metrics().TotalMessages - before
	}
	expWall := time.Since(tExp)
	tr.end(expRun)
	var final *graphx.Multi
	call("expander.final_graph", func() { final = expander.FinalGraph(eng1, protos1) })
	var s *graphx.Graph
	call("graphx.simple", func() { s = final.Simple() })

	// Tree phase, exactly as BuildTree sizes it.
	flood := 2*sim.LogBound(n) + 2
	call("graphx.diameter_bound", func() {
		if d := s.DiameterUpperBound(); d+2 > flood {
			flood = d + 2
		}
	})
	var eng2 *sim.Engine
	var protos2 []*wft.Protocol
	call("wft.build_engine", func() { eng2, protos2 = wft.BuildEngine(s, flood, sim.Config{Seed: cfg.seed + 1}) })
	treeRun := call("wft.run", func() { eng2.Run(wft.Rounds(flood, n) + 4) })
	var tree *wft.Tree
	extract := call("wft.extract", func() { tree, err = wft.ExtractTree(eng2, protos2) })
	if err != nil {
		rep.fail("replay: wft.ExtractTree: %v", err)
		return
	}
	call("graphx.diameter_estimate", func() { _ = s.DiameterEstimate() })
	var gap float64
	gapWall := call("graphx.spectral_gap", func() {
		gap = final.SpectralGapWorkers(200, rng.New(cfg.seed).Split(0x9a9), ep.Workers)
	})
	tr.end(root)
	traced := time.Since(t0)
	rep.attempted++
	rounds := eng1.Round() + eng2.Round()
	messages := eng1.Metrics().TotalMessages + eng2.Metrics().TotalMessages
	if rounds != res.Stats.Rounds || messages != res.Stats.Messages || gap != res.Stats.SpectralGap ||
		tree.Root != res.Tree.Root || !slices.Equal(tree.Parent, res.Tree.Parent) || !slices.Equal(tree.Rank, res.Tree.Rank) {
		rep.fail("replay (rounds %d, messages %d, gap %v) differs from BuildTree (rounds %d, messages %d, gap %v) at seed %d",
			rounds, messages, gap, res.Stats.Rounds, res.Stats.Messages, res.Stats.SpectralGap, cfg.seed)
	}

	em := eng1.Metrics().TotalMessages
	rs := summarize(roundUS, 90)
	rep.set("sim.ns_per_msg", float64(expWall)/float64(em), "ns")
	rep.set("sim.round_us.p50", rs.P50, "us")
	rep.set("sim.round_us.p90", rs.Tail, "us")
	rep.set("sim.active_frac", mean(active), "ratio")
	rep.set("expander.run_s", expWall.Seconds(), "s")
	rep.set("expander.rounds", float64(eng1.Round()), "count")
	rep.set("expander.msgs", float64(em), "count")
	rep.set("wft.tree_run_ms", ms(treeRun), "ms")
	rep.set("wft.tree_rounds", float64(eng2.Round()), "count")
	rep.set("wft.tree_msgs", float64(eng2.Metrics().TotalMessages), "count")
	rep.set("wft.extract_ms", ms(extract), "ms")
	rep.set("benign.prepare_ms", ms(prepare), "ms")
	rep.set("graphx.spectral_gap_ms", ms(gapWall), "ms")
	rep.set("trace.overhead_ms.build", ms(traced-untraced), "ms")
	rep.note("build_traced_ms", ms(traced))
	rep.note("build_untraced_ms", ms(untraced))
}
