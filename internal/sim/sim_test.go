package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"overlay/internal/ids"
	"overlay/internal/rng"
)

// Test wire kinds and payloads.
const (
	kindVal uint16 = 1 + iota
	kindWide
)

// valMsg is a one-word wire payload carrying a counter or token.
type valMsg struct{ v uint64 }

func (m valMsg) Encode(w *Wire) {
	w.Kind = kindVal
	w.W[0] = m.v
}

func (m *valMsg) Decode(w Wire) { m.v = w.W[0] }

// wideMsg is a wire-native multi-unit payload (an ℓ-identifier token
// in the paper's accounting): Encode declares its size on Wire.Units.
type wideMsg struct {
	v     uint64
	units int32
}

func (m wideMsg) Encode(w *Wire) {
	w.Kind = kindWide
	w.W[0] = m.v
	w.Units = m.units
}

func (m *wideMsg) Decode(w Wire) {
	m.v = w.W[0]
	m.units = w.Units
}

// chainNode floods a counter down a chain of nodes by index order:
// node i sends its value +1 to node i+1 once it has received.
type chainNode struct {
	all      []ids.ID
	received int
	halted   bool
}

func (c *chainNode) Init(ctx *Ctx) {
	if ctx.Index == 0 {
		c.received = 1
		Send(ctx, c.all[1], valMsg{1})
		c.halted = true
	}
}

func (c *chainNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		var m valMsg
		m.Decode(w)
		c.received = int(m.v)
		if ctx.Index+1 < len(c.all) {
			Send(ctx, c.all[ctx.Index+1], valMsg{m.v + 1})
		}
		c.halted = true
	}
}

func (c *chainNode) Halted() bool { return c.halted }

func TestChainDelivery(t *testing.T) {
	const n = 10
	nodes := make([]Node, n)
	chains := make([]*chainNode, n)
	for i := range nodes {
		chains[i] = &chainNode{}
		nodes[i] = chains[i]
	}
	e := New(Config{N: n, Seed: 1}, nodes)
	for i := range chains {
		chains[i].all = e.IDs()
	}
	rounds := e.Run(100)
	if rounds != n-1 {
		t.Errorf("rounds = %d, want %d", rounds, n-1)
	}
	// Node 0 sets 1 for itself at Init; node i >= 1 receives value i.
	for i, c := range chains {
		want := i
		if i == 0 {
			want = 1
		}
		if c.received != want {
			t.Errorf("node %d received %d, want %d", i, c.received, want)
		}
	}
	if e.Metrics().TotalMessages != n-1 {
		t.Errorf("total messages = %d, want %d", e.Metrics().TotalMessages, n-1)
	}
}

// spamNode sends `count` wire-native messages at Init and then runs
// one round to drain its inbox, checking the payloads arrive intact.
type spamNode struct {
	target ids.ID
	count  int
	got    int
	rounds int
	badAny int
}

func (s *spamNode) Init(ctx *Ctx) {
	for i := 0; i < s.count; i++ {
		Send(ctx, s.target, valMsg{uint64(i)})
	}
}

func (s *spamNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		var m valMsg
		m.Decode(w)
		if w.Kind != kindVal || m.v != w.W[0] {
			s.badAny++
		}
	}
	s.got += len(inbox)
	s.rounds++
}

func (s *spamNode) Halted() bool { return s.rounds >= 1 }

func TestRecvCapDropsExcess(t *testing.T) {
	// 5 senders x 4 messages = 20 at one receiver with RecvCap 7.
	const senders, per, cap = 5, 4, 7
	nodes := make([]Node, senders+1)
	spams := make([]*spamNode, senders+1)
	for i := range nodes {
		spams[i] = &spamNode{count: 0}
		nodes[i] = spams[i]
	}
	e := New(Config{N: senders + 1, Seed: 3, RecvCap: cap}, nodes)
	target := e.IDs()[senders]
	for i := 0; i < senders; i++ {
		spams[i].target = target
		spams[i].count = per
	}
	spams[senders].target = e.IDs()[0] // self-target unused
	e.Run(2)
	if got := spams[senders].got; got != cap {
		t.Errorf("receiver got %d messages, want exactly cap %d", got, cap)
	}
	if spams[senders].badAny != 0 {
		t.Errorf("%d payloads arrived corrupted", spams[senders].badAny)
	}
	if e.Metrics().RecvDrops != 1 {
		t.Errorf("RecvDrops = %d, want 1", e.Metrics().RecvDrops)
	}
}

func TestSendCapEnforced(t *testing.T) {
	nodes := []Node{&spamNode{count: 10}, &spamNode{}}
	e := New(Config{N: 2, Seed: 5, SendCap: 4}, nodes)
	nodes[0].(*spamNode).target = e.IDs()[1]
	nodes[1].(*spamNode).target = e.IDs()[0]
	e.Run(2)
	if got := nodes[1].(*spamNode).got; got != 4 {
		t.Errorf("receiver got %d, want 4 (send cap)", got)
	}
	if e.Metrics().SendCapViolations != 1 {
		t.Errorf("SendCapViolations = %d, want 1", e.Metrics().SendCapViolations)
	}
}

// sizedSender sends one big wire-native payload, then runs one round
// to drain its inbox before halting.
type sizedSender struct {
	target ids.ID
	units  int
	got    int
	rounds int
}

func (s *sizedSender) Init(ctx *Ctx) {
	if s.units > 0 {
		Send(ctx, s.target, wideMsg{v: 1, units: int32(s.units)})
	}
}

func (s *sizedSender) Round(ctx *Ctx, inbox []Wire) {
	s.got += len(inbox)
	s.rounds++
}
func (s *sizedSender) Halted() bool { return s.rounds >= 1 }

func TestSizedPayloadAccounting(t *testing.T) {
	nodes := []Node{&sizedSender{units: 5}, &sizedSender{}}
	e := New(Config{N: 2, Seed: 7}, nodes)
	nodes[0].(*sizedSender).target = e.IDs()[1]
	nodes[1].(*sizedSender).target = e.IDs()[0]
	e.Run(1)
	m := e.Metrics()
	if m.TotalUnits != 5 {
		t.Errorf("TotalUnits = %d, want 5", m.TotalUnits)
	}
	if m.TotalMessages != 1 {
		t.Errorf("TotalMessages = %d, want 1", m.TotalMessages)
	}
	if m.PerNodeSent[0] != 5 || m.PerNodeRecv[1] != 5 {
		t.Errorf("per-node units: sent=%v recv=%v", m.PerNodeSent, m.PerNodeRecv)
	}
}

func TestSizedPayloadBlockedByRecvCap(t *testing.T) {
	// A 5-unit payload cannot fit a 4-unit receive cap and is dropped.
	nodes := []Node{&sizedSender{units: 5}, &sizedSender{}}
	e := New(Config{N: 2, Seed: 7, RecvCap: 4}, nodes)
	nodes[0].(*sizedSender).target = e.IDs()[1]
	nodes[1].(*sizedSender).target = e.IDs()[0]
	e.Run(1)
	if got := nodes[1].(*sizedSender).got; got != 0 {
		t.Errorf("oversized payload delivered (%d msgs)", got)
	}
}

// gossipNode floods a random token to stress determinism checks.
type gossipNode struct {
	peers []ids.ID
	sum   uint64
	turns int
}

func (g *gossipNode) Init(ctx *Ctx) {
	g.send(ctx)
}

func (g *gossipNode) Round(ctx *Ctx, inbox []Wire) {
	for _, w := range inbox {
		var m valMsg
		m.Decode(w)
		g.sum += m.v
	}
	g.turns++
	if g.turns < 5 {
		g.send(ctx)
	}
}

func (g *gossipNode) send(ctx *Ctx) {
	to := g.peers[ctx.Rand.Intn(len(g.peers))]
	Send(ctx, to, valMsg{ctx.Rand.Uint64()})
}

func (g *gossipNode) Halted() bool { return g.turns >= 5 }

func runGossip(seed uint64, sequential bool) []uint64 {
	const n = 128
	nodes := make([]Node, n)
	gs := make([]*gossipNode, n)
	for i := range nodes {
		gs[i] = &gossipNode{}
		nodes[i] = gs[i]
	}
	e := New(Config{N: n, Seed: seed, Sequential: sequential}, nodes)
	for i := range gs {
		gs[i].peers = e.IDs()
	}
	e.Run(10)
	sums := make([]uint64, n)
	for i, g := range gs {
		sums[i] = g.sum
	}
	return sums
}

func TestDeterminismAcrossExecutionModes(t *testing.T) {
	a := runGossip(99, false)
	b := runGossip(99, true)
	c := runGossip(100, true)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel vs sequential diverged at node %d", i)
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical runs")
	}
}

// runGossipMetrics runs the gossip protocol under an explicit engine
// configuration and returns the per-node sums plus the full metrics.
func runGossipMetrics(cfg Config, recvCap int) ([]uint64, *Metrics) {
	const n = 256
	cfg.N = n
	cfg.RecvCap = recvCap
	nodes := make([]Node, n)
	gs := make([]*gossipNode, n)
	for i := range nodes {
		gs[i] = &gossipNode{}
		nodes[i] = gs[i]
	}
	e := New(cfg, nodes)
	for i := range gs {
		gs[i].peers = e.IDs()
	}
	e.Run(10)
	sums := make([]uint64, n)
	for i, g := range gs {
		sums[i] = g.sum
	}
	return sums, e.Metrics()
}

// TestShardedDeliveryMatchesSequential is the guardrail for the
// sharded-delivery refactor: the sequential path and the parallel path
// (with the worker pool forced on) must produce identical node states
// and bit-for-bit identical Metrics for the same seed.
func TestShardedDeliveryMatchesSequential(t *testing.T) {
	seqSums, seqM := runGossipMetrics(Config{Seed: 42, Sequential: true}, 0)
	for _, workers := range []int{2, 4, 16} {
		parSums, parM := runGossipMetrics(Config{Seed: 42, Workers: workers}, 0)
		if !reflect.DeepEqual(seqSums, parSums) {
			t.Errorf("workers=%d: sequential and sharded runs diverged in node state", workers)
		}
		if !reflect.DeepEqual(seqM, parM) {
			t.Errorf("workers=%d: sequential and sharded runs diverged in metrics:\nseq: %+v\npar: %+v",
				workers, seqM, parM)
		}
	}
}

// TestRecvDropsReproducible pins capacity-drop behaviour: with a
// receive cap tight enough to force drops, both execution paths must
// drop the same messages (same per-node sums) and report the same
// RecvDrops count.
func TestRecvDropsReproducible(t *testing.T) {
	seqSums, seqM := runGossipMetrics(Config{Seed: 7, Sequential: true}, 2)
	parSums, parM := runGossipMetrics(Config{Seed: 7, Workers: 4}, 2)
	if seqM.RecvDrops == 0 {
		t.Fatal("test needs a cap tight enough to force drops")
	}
	if !reflect.DeepEqual(seqSums, parSums) {
		t.Error("capacity drops differed between sequential and sharded paths")
	}
	if !reflect.DeepEqual(seqM, parM) {
		t.Errorf("metrics diverged under drops:\nseq: %+v\npar: %+v", seqM, parM)
	}
	// And the whole run is reproducible from the seed alone.
	againSums, againM := runGossipMetrics(Config{Seed: 7, Workers: 4}, 2)
	if !reflect.DeepEqual(parSums, againSums) || !reflect.DeepEqual(parM, againM) {
		t.Error("repeated run with equal seed diverged")
	}
}

// wakeNode halts immediately but counts every Round invocation: the
// active-set scheduler must not tick it while its inbox is empty, and
// must wake it when a message arrives.
type wakeNode struct {
	calls int
	got   int
}

func (w *wakeNode) Init(ctx *Ctx) { ctx.Halt() }
func (w *wakeNode) Halted() bool  { return true }
func (w *wakeNode) Round(ctx *Ctx, inbox []Wire) {
	w.calls++
	w.got += len(inbox)
}

// pingNode sends one message to its target in round 3 and halts in
// round 5 (staying active past the target's wake round).
type pingNode struct{ target ids.ID }

func (p *pingNode) Init(ctx *Ctx) {}
func (p *pingNode) Round(ctx *Ctx, inbox []Wire) {
	if ctx.Round() == 3 {
		Send(ctx, p.target, valMsg{1})
	}
	if ctx.Round() >= 5 {
		ctx.Halt()
	}
}

func TestActiveSetSkipsHaltedUntilMessage(t *testing.T) {
	sleeper := &wakeNode{}
	pinger := &pingNode{}
	e := New(Config{N: 2, Seed: 21}, []Node{sleeper, pinger})
	pinger.target = e.IDs()[0]
	rounds := e.Run(50)
	if rounds != 5 {
		t.Errorf("rounds = %d, want 5", rounds)
	}
	// The sleeper is halted from Init on: rounds 1-3 must not tick it,
	// round 4 delivers the ping and wakes it exactly once, and it goes
	// straight back to being skipped afterwards.
	if sleeper.calls != 1 {
		t.Errorf("halted node ticked %d times, want exactly 1 (its wake-up)", sleeper.calls)
	}
	if sleeper.got != 1 {
		t.Errorf("woken node saw %d messages, want 1", sleeper.got)
	}
	if e.NumActive() != 0 {
		t.Errorf("NumActive = %d after full halt, want 0", e.NumActive())
	}
}

// pingAndDieNode sends to its target and halts in the same round.
type pingAndDieNode struct{ target ids.ID }

func (p *pingAndDieNode) Init(ctx *Ctx) {}
func (p *pingAndDieNode) Round(ctx *Ctx, inbox []Wire) {
	if ctx.Round() == 2 {
		Send(ctx, p.target, valMsg{7})
		ctx.Halt()
	}
}

// TestWakeDeliveryAfterLastSenderHalts pins the wake-on-message
// guarantee at the engine's stop condition: when the last active node
// sends to a halted node and terminates in the same round, the engine
// must still run the wake round that delivers the message rather than
// stopping on "all halted" with mail in flight.
func TestWakeDeliveryAfterLastSenderHalts(t *testing.T) {
	sleeper := &wakeNode{}
	pinger := &pingAndDieNode{}
	e := New(Config{N: 2, Seed: 33}, []Node{sleeper, pinger})
	pinger.target = e.IDs()[0]
	rounds := e.Run(50)
	// Round 2: pinger sends and halts; round 3 is the wake round.
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3", rounds)
	}
	if sleeper.calls != 1 || sleeper.got != 1 {
		t.Errorf("woken node: calls=%d got=%d, want 1 and 1 (message must not be lost)",
			sleeper.calls, sleeper.got)
	}
}

// TestNoSpuriousWakeWhenCapDropsEverything pins the wake contract on
// the capped path: a halted node whose entire inbox is dropped by the
// receive cap received no mail, so it must not be ticked.
func TestNoSpuriousWakeWhenCapDropsEverything(t *testing.T) {
	sleeper := &wakeNode{}
	// The sender emits one 5-unit payload in round 2, which cannot fit
	// a 4-unit receive cap and is dropped whole; it halts in round 5.
	sender := &bigPingNode{}
	e := New(Config{N: 2, Seed: 27, RecvCap: 4}, []Node{sleeper, sender})
	sender.target = e.IDs()[0]
	e.Run(50)
	if e.Metrics().RecvDrops != 1 {
		t.Fatalf("RecvDrops = %d, want 1", e.Metrics().RecvDrops)
	}
	if sleeper.calls != 0 {
		t.Errorf("halted node ticked %d times on a fully-dropped inbox, want 0", sleeper.calls)
	}
}

type bigPingNode struct{ target ids.ID }

func (p *bigPingNode) Init(ctx *Ctx) {}
func (p *bigPingNode) Round(ctx *Ctx, inbox []Wire) {
	if ctx.Round() == 2 {
		Send(ctx, p.target, wideMsg{v: 9, units: 5})
	}
	if ctx.Round() >= 5 {
		ctx.Halt()
	}
}

func TestUniqueIDs(t *testing.T) {
	nodes := make([]Node, 500)
	for i := range nodes {
		nodes[i] = &sizedSender{}
	}
	e := New(Config{N: 500, Seed: 11}, nodes)
	seen := ids.NewSet()
	for _, id := range e.IDs() {
		if seen.Has(id) {
			t.Fatalf("duplicate id %v", id)
		}
		if id == ids.Nil {
			t.Fatal("Nil id assigned")
		}
		seen.Add(id)
	}
	if i, ok := e.IndexOf(e.IDs()[42]); !ok || i != 42 {
		t.Error("IndexOf mismatch")
	}
}

// idsByMap is the identifier generation New used before the routing
// table: draw from the run's ID stream and reject Nil and repeats
// through a map. It stays here as the oracle for the table's dedup.
func idsByMap(seed uint64, n int) []ids.ID {
	idStream := rng.New(seed).Split(0xed5)
	seen := make(map[ids.ID]struct{}, n)
	out := make([]ids.ID, 0, n)
	for len(out) < n {
		id := ids.ID(idStream.Uint64())
		if id == ids.Nil {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// TestRoutingTableResolvesEveryID fences the routing table across
// sizes on both sides of the power-of-two boundaries: the IDs match
// the map-deduplicated generation bit for bit, every member resolves
// to its own index, and Nil and random non-members miss.
func TestRoutingTableResolvesEveryID(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 4095, 4096, 4097} {
		for _, seed := range []uint64{0, 1, 7, 9001} {
			e := New(Config{N: n, Seed: seed}, make([]Node, n))
			if size := len(e.route); size < 2*n || size&(size-1) != 0 {
				t.Fatalf("n=%d: table size %d is not a power of two >= 2n", n, size)
			}
			want := idsByMap(seed, n)
			if !slices.Equal(e.IDs(), want) {
				t.Fatalf("n=%d seed=%d: IDs differ from the map-deduplicated generation", n, seed)
			}
			member := make(map[ids.ID]bool, n)
			for i, id := range e.IDs() {
				member[id] = true
				if got, ok := e.IndexOf(id); !ok || got != i {
					t.Fatalf("n=%d seed=%d: IndexOf(IDs()[%d]) = %d, %v", n, seed, i, got, ok)
				}
			}
			if _, ok := e.IndexOf(ids.Nil); ok {
				t.Fatalf("n=%d seed=%d: Nil resolved", n, seed)
			}
			probe := rng.New(seed ^ 0x5eed)
			for k := 0; k < 1000; k++ {
				id := ids.ID(probe.Uint64())
				if member[id] {
					continue
				}
				if i, ok := e.IndexOf(id); ok {
					t.Fatalf("n=%d seed=%d: non-member %v resolved to %d", n, seed, id, i)
				}
			}
		}
	}
}

// fibInverse is the multiplicative inverse of fibHash modulo 2^64, so
// a test can build an ID that hashes to any chosen slot.
var fibInverse = func() uint64 {
	inv := uint64(fibHash) // correct to 3 bits; each Newton step doubles them
	for i := 0; i < 5; i++ {
		inv *= 2 - fibHash*inv
	}
	return inv
}()

// TestRoutingTableCollisions drives the probe chains with hand-built
// IDs that all hash to the table's last slot: later inserts wrap to
// slots 0 and 1 and still resolve, a repeat insert is rejected without
// touching the table, and a colliding non-member misses at the chain's
// end.
func TestRoutingTableCollisions(t *testing.T) {
	var e Engine
	e.makeRoute(4)
	last := uint64(len(e.route) - 1)
	at := func(slot, tag uint64) ids.ID { return ids.ID((slot<<e.routeShift | tag) * fibInverse) }
	chain := []ids.ID{at(last, 1), at(last, 2), at(last, 3)}
	for i, id := range chain {
		if h := uint64(id) * fibHash >> e.routeShift; h != last {
			t.Fatalf("chain[%d] hashes to slot %d, want %d", i, h, last)
		}
		if !e.routeInsert(id, int32(i)) {
			t.Fatalf("insert of chain[%d] rejected", i)
		}
	}
	if e.route[0].id != chain[1] || e.route[1].id != chain[2] {
		t.Fatalf("probe chain did not wrap to slots 0 and 1: %+v", e.route)
	}
	if e.routeInsert(chain[2], 9) || e.routeInsert(chain[0], 9) {
		t.Fatal("duplicate insert accepted")
	}
	// The zero identifier is routable: emptiness is marked by idx, not id.
	zero := at(0, 0)
	if zero != 0 || !e.routeInsert(zero, 3) {
		t.Fatalf("insert of the zero ID %v rejected", zero)
	}
	for i, id := range append(chain, zero) {
		if got, ok := e.lookup(id); !ok || got != int32(i) {
			t.Errorf("lookup(%v) = %d, %v; want %d", id, got, ok, i)
		}
	}
	if _, ok := e.lookup(at(last, 4)); ok {
		t.Error("colliding non-member resolved")
	}
}

func TestHaltStopsEngine(t *testing.T) {
	// Nodes that halt via Ctx.Halt (no Halter implementation).
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &haltingNode{}
	}
	e := New(Config{N: 4, Seed: 2}, nodes)
	rounds := e.Run(50)
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3", rounds)
	}
}

type haltingNode struct{ r int }

func (h *haltingNode) Init(ctx *Ctx) {}
func (h *haltingNode) Round(ctx *Ctx, inbox []Wire) {
	h.r++
	if h.r >= 3 {
		ctx.Halt()
	}
}

func TestLogBound(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := LogBound(n); got != want {
			t.Errorf("LogBound(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRoundMaxMetrics(t *testing.T) {
	nodes := []Node{&spamNode{count: 3}, &spamNode{}}
	e := New(Config{N: 2, Seed: 13}, nodes)
	nodes[0].(*spamNode).target = e.IDs()[1]
	nodes[1].(*spamNode).target = e.IDs()[0]
	e.Run(1)
	m := e.Metrics()
	if m.MaxRoundSent() != 3 || m.MaxRoundRecv() != 3 {
		t.Errorf("MaxRoundSent=%d MaxRoundRecv=%d, want 3,3", m.MaxRoundSent(), m.MaxRoundRecv())
	}
	if m.MaxPerNodeSent() != 3 {
		t.Errorf("MaxPerNodeSent = %d, want 3", m.MaxPerNodeSent())
	}
}

// sleeper records the rounds it acts in (gets mail, or reaches round
// wake) and the mail each brings. From round napFrom on (0: from Init)
// it parks until round wake, again after every early wake, and it
// halts at wake — or on its first mail when haltOnMail is set. With
// idle set it never parks and instead stays active through the same
// rounds doing nothing: the reference a parked run must match round
// for round.
type sleeper struct {
	napFrom, wake int
	haltOnMail    bool
	idle          bool
	ran, got      []int
}

func (s *sleeper) nap(ctx *Ctx) {
	if !s.idle {
		ctx.SleepUntil(s.wake)
	}
}

func (s *sleeper) Init(ctx *Ctx) {
	if s.napFrom == 0 {
		s.nap(ctx)
	}
}

func (s *sleeper) Round(ctx *Ctx, inbox []Wire) {
	r := ctx.Round()
	if len(inbox) > 0 || !s.idle || r >= s.wake {
		s.ran = append(s.ran, r)
		s.got = append(s.got, len(inbox))
	}
	if r >= s.wake || s.haltOnMail && len(inbox) > 0 {
		ctx.Halt()
		return
	}
	if r >= s.napFrom {
		s.nap(ctx)
	}
}

// TestSleeperRunsOnceAtDeadline pins the deadline wake: a node parked
// from Init until round 7 is not ticked in rounds 1-6, runs exactly
// once at round 7, and Run counts every round up to it although no
// node ran before it.
func TestSleeperRunsOnceAtDeadline(t *testing.T) {
	s := &sleeper{wake: 7}
	e := New(Config{N: 2, Seed: 3}, []Node{s, &wakeNode{}})
	if rounds := e.Run(50); rounds != 7 {
		t.Errorf("rounds = %d, want 7", rounds)
	}
	if !reflect.DeepEqual(s.ran, []int{7}) {
		t.Errorf("sleeper ran in rounds %v, want [7]", s.ran)
	}
	if nr := e.Metrics().NodeRounds; nr != 1 {
		t.Errorf("NodeRounds = %d, want 1", nr)
	}
}

// TestMailWakesSleeperOnceAndCancelsDeadline pins the early wake: mail
// sent in round 2 wakes the sleeper in round 3, once. A sleeper that
// parks again runs once more at its deadline — not twice, though both
// its parks filed an entry for round 10 — and one that halts on the
// mail cancels the deadline outright, so Run stops at round 3 instead
// of ticking on to 10.
func TestMailWakesSleeperOnceAndCancelsDeadline(t *testing.T) {
	for _, halt := range []bool{false, true} {
		s := &sleeper{wake: 10, haltOnMail: halt}
		pinger := &pingAndDieNode{}
		e := New(Config{N: 2, Seed: 5}, []Node{s, pinger})
		pinger.target = e.IDs()[0]
		rounds := e.Run(50)
		wantRan, wantGot, wantRounds := []int{3, 10}, []int{1, 0}, 10
		if halt {
			wantRan, wantGot, wantRounds = []int{3}, []int{1}, 3
		}
		if !reflect.DeepEqual(s.ran, wantRan) || !reflect.DeepEqual(s.got, wantGot) {
			t.Errorf("haltOnMail=%v: sleeper ran %v with inboxes %v, want %v with %v", halt, s.ran, s.got, wantRan, wantGot)
		}
		if rounds != wantRounds {
			t.Errorf("haltOnMail=%v: rounds = %d, want %d", halt, rounds, wantRounds)
		}
	}
}

// TestMailToNodeParkingSameRound pins the ordering trap between the
// sender pass and sharded delivery: the sleeper runs round 2 and parks
// in it while the pinger sends to it in that same round. The park mark
// must already be set when delivery decides whom the mail wakes, or
// the message would land in an inbox nobody reads until round 9.
func TestMailToNodeParkingSameRound(t *testing.T) {
	for w := 1; w <= 4; w++ {
		s := &sleeper{napFrom: 2, wake: 9}
		pinger := &pingAndDieNode{}
		e := New(Config{N: 2, Seed: 8, Workers: w}, []Node{s, pinger})
		pinger.target = e.IDs()[0]
		e.Run(50)
		if want := []int{1, 2, 3, 9}; !reflect.DeepEqual(s.ran, want) {
			t.Errorf("workers=%d: sleeper ran in rounds %v, want %v", w, s.ran, want)
		}
		if want := []int{0, 0, 1, 0}; !reflect.DeepEqual(s.got, want) {
			t.Errorf("workers=%d: sleeper inboxes %v, want %v", w, s.got, want)
		}
	}
}

// TestCrashedSleeperNeverRuns pins parking under crash-stop: a node
// asleep until round 10 that crashes at round 6 never runs again, and
// its pending deadline keeps Run ticking only through round 5 — the
// rounds an idle, never-parking node would have kept alive.
func TestCrashedSleeperNeverRuns(t *testing.T) {
	adv := &Adversary{Crashes: []Crash{{Node: 0, Round: 6}}}
	var rounds [2]int
	for k, idle := range []bool{false, true} {
		s := &sleeper{wake: 10, idle: idle}
		e := New(Config{N: 2, Seed: 9, Adversary: adv}, []Node{s, &wakeNode{}})
		rounds[k] = e.Run(50)
		if len(s.ran) != 0 {
			t.Errorf("idle=%v: crashed sleeper ran in rounds %v", idle, s.ran)
		}
	}
	if rounds[0] != 5 || rounds[1] != 5 {
		t.Errorf("rounds parked/idle = %d/%d, want 5/5", rounds[0], rounds[1])
	}
}

// TestRunWaitsForPendingDeadline pins the stop condition: with every
// other node halted and nothing in flight, a pending deadline keeps
// Run going, across budget-limited Run calls too, and NumActive counts
// the sleeper as not halted.
func TestRunWaitsForPendingDeadline(t *testing.T) {
	s := &sleeper{wake: 12}
	e := New(Config{N: 3, Seed: 4}, []Node{&wakeNode{}, s, &wakeNode{}})
	if rounds := e.Run(5); rounds != 5 {
		t.Fatalf("budgeted run stopped at round %d, want 5", rounds)
	}
	if e.NumActive() != 1 {
		t.Errorf("NumActive = %d while asleep, want 1", e.NumActive())
	}
	if rounds := e.Run(50); rounds != 12 {
		t.Errorf("resumed run stopped at round %d, want 12", rounds)
	}
	if !reflect.DeepEqual(s.ran, []int{12}) {
		t.Errorf("sleeper ran in rounds %v, want [12]", s.ran)
	}
	if e.NumActive() != 0 {
		t.Errorf("NumActive = %d after the deadline halt, want 0", e.NumActive())
	}
}

// napper is a traffic-driven protocol with idle stretches: it draws a
// few alarm rounds in Init, sends a three-hop relay token at each, and
// forwards every token it receives to a random peer until its hops run
// out; it halts at round last. Between alarms it parks until the next
// one, or with idle set stays active doing nothing. Its randomness is
// drawn only in rounds that do something, so both modes must match.
type napper struct {
	idle   bool
	last   int
	alarms []int
	recv   []recEntry
}

func (p *napper) Init(ctx *Ctx) {
	for r := 1 + ctx.Rand.Intn(4); r < p.last; r += 1 + ctx.Rand.Intn(6) {
		p.alarms = append(p.alarms, r)
	}
	p.nap(ctx)
}

func (p *napper) nap(ctx *Ctx) {
	if p.idle {
		return
	}
	next := p.last
	if len(p.alarms) > 0 {
		next = p.alarms[0]
	}
	ctx.SleepUntil(next)
}

func (p *napper) Round(ctx *Ctx, inbox []Wire) {
	r := ctx.Round()
	all := ctx.engine.IDs()
	for _, w := range inbox {
		p.recv = append(p.recv, recEntry{round: r, from: w.From, val: w.W[0]})
		if w.W[0]&0xff > 0 {
			Send(ctx, all[ctx.Rand.Intn(len(all))], fvalMsg{v: w.W[0] - 1})
		}
	}
	if len(p.alarms) > 0 && p.alarms[0] == r {
		p.alarms = p.alarms[1:]
		Send(ctx, all[ctx.Rand.Intn(len(all))], fvalMsg{v: uint64(r)<<16 | uint64(ctx.Index)<<8 | 3})
	}
	if r >= p.last {
		ctx.Halt()
		return
	}
	p.nap(ctx)
}

// TestParkingDeterminismAcrossWorkers runs the napper under a delay,
// drop, and crash adversary at every worker count from 1 to 16, parked
// and idle: receptions, rounds, and every communication metric must be
// bit-identical across all 32 runs, while parking must cut node visits.
func TestParkingDeterminismAcrossWorkers(t *testing.T) {
	const n = 48
	adv := &Adversary{
		Seed:      17,
		DropProb:  0.05,
		DelayProb: 0.2,
		DelayMax:  3,
		Crashes:   []Crash{{Node: 3, Round: 5}, {Node: 7, Round: 0}, {Node: 12, Round: 9}, {Node: 30, Round: 16}},
	}
	run := func(w int, idle bool) (string, int64) {
		nodes := make([]Node, n)
		naps := make([]*napper, n)
		for i := range nodes {
			naps[i] = &napper{idle: idle, last: 20}
			nodes[i] = naps[i]
		}
		e := New(Config{N: n, Seed: 23, Workers: w, Adversary: adv}, nodes)
		e.Run(200)
		h := fnv.New64a()
		for i, p := range naps {
			fmt.Fprintf(h, "#%d|", i)
			for _, r := range p.recv {
				fmt.Fprintf(h, "%d,%v,%d;", r.round, r.from, r.val)
			}
		}
		m := e.Metrics()
		return fmt.Sprintf("fp=%016x rounds=%d msgs=%d units=%d fdrops=%d fdelays=%d sent=%v recv=%v maxS=%v maxR=%v",
			h.Sum64(), e.Round(), m.TotalMessages, m.TotalUnits, m.FaultDrops, m.FaultDelays,
			m.PerNodeSent, m.PerNodeRecv, m.RoundMaxSent, m.RoundMaxRecv), m.NodeRounds
	}
	want, idleVisits := run(1, true)
	_, parkedVisits := run(1, false)
	if parkedVisits >= idleVisits {
		t.Errorf("parked run visited %d node-rounds, idle run %d: parking saved nothing", parkedVisits, idleVisits)
	}
	for w := 1; w <= 16; w++ {
		for _, idle := range []bool{false, true} {
			got, visits := run(w, idle)
			if got != want {
				t.Fatalf("workers=%d idle=%v diverged:\n got %s\nwant %s", w, idle, got, want)
			}
			wantVisits := parkedVisits
			if idle {
				wantVisits = idleVisits
			}
			if visits != wantVisits {
				t.Errorf("workers=%d idle=%v: %d node-rounds, want %d", w, idle, visits, wantVisits)
			}
		}
	}
}
