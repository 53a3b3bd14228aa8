// Package sim is a deterministic synchronous message-passing engine
// implementing the overlay-network model of Section 1.1 of the paper.
//
// Time proceeds in synchronous rounds. Every node is a state machine:
// each round it receives the messages sent to it in the previous round,
// updates state, and sends new messages. A node can send to any node
// whose identifier it knows, and connections are established by
// forwarding identifiers; the engine routes purely by identifier, so
// "knowing" is exactly possessing the ID, as in the paper.
//
// Messages are fixed-width Wire values — the paper's O(log n)-bit
// messages are a constant number of machine words, and the engine
// represents them as exactly that ({From, Kind, Units, W [4]uint64}),
// never as boxed interface objects. Protocol payloads implement
// Encode(*Wire)/Decode(Wire); receivers dispatch on Wire.Kind.
//
// The NCC0 capacity restriction is enforced mechanically: messages are
// unit-counted (an O(log n)-bit message carrying a constant number of
// identifiers is one unit; Wire.Units sizes ℓ-identifier walk tokens),
// a node may send at most SendCap units and receive at most RecvCap
// units per round, and excess received messages are dropped as "an
// arbitrary subset" — here a uniformly random subset chosen by the
// receiver's private stream, which keeps runs reproducible while not
// favoring any protocol ordering.
//
// Determinism: every node owns a private rng stream split from the run
// seed; node handlers run concurrently across a worker pool but observe
// only their own state, inbox, and stream. Outgoing messages are
// delivered by destination-sharded workers that each scan the outboxes
// in (sender-index, send-order), so every inbox is filled in exactly
// the order a sequential merge would produce and a run is a pure
// function of (protocol, seed) regardless of Sequential or Workers.
//
// Scale: the engine is built for 100k+-node message-level runs.
// Outboxes are columnar (a flat []Wire per sender with a parallel
// destination column) and each delivery shard scatters into one flat
// []Wire arena indexed by per-destination offset/count arrays
// (CSR-style), so a round performs zero per-message allocations and
// delivery is a cache-linear scan instead of pointer chasing.
// Identifier routing is one probe of a flat hash table built at New,
// and an active-set scheduler skips parked nodes, so a mostly-idle
// network costs only its traffic per round. A node parks
// by halting (Ctx.Halt or Halter), which parks it with no deadline, or
// by Ctx.SleepUntil(r), which parks it until round r. A parked node's
// Round is invoked again only when a message survives delivery to it
// or its deadline arrives, whichever comes first — a parked node with
// an empty inbox is not ticked before its deadline — and Run keeps
// ticking (empty) rounds while any deadline is pending, so a round
// count never depends on who slept. Consequently a node's inbox slice
// is only valid for the duration of its Round call.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"overlay/internal/ids"
	"overlay/internal/rng"
)

// Node is a per-node protocol state machine.
type Node interface {
	// Init runs once before the first round.
	Init(ctx *Ctx)
	// Round runs every round with the messages delivered this round.
	// The inbox slice aliases the engine's delivery arena and is
	// reused; it must not be retained after Round returns.
	Round(ctx *Ctx, inbox []Wire)
}

// Halter is an optional Node extension: when every node reports Halted,
// the engine stops early. Nodes without Halter are covered by Ctx.Halt.
// A node reporting Halted after a round is parked with no deadline: it
// leaves the active set and its Round is only invoked again when a
// message is delivered to it. Ctx.SleepUntil is the same parked state
// with a deadline round that also wakes it.
type Halter interface {
	Halted() bool
}

// Config parameterizes an Engine.
type Config struct {
	// N is the number of nodes.
	N int
	// Seed is the run seed; equal seeds reproduce runs exactly.
	Seed uint64
	// SendCap and RecvCap are per-round unit capacities; 0 disables the
	// respective cap. The NCC0 model sets both to Θ(log n).
	SendCap, RecvCap int
	// Sequential forces single-goroutine execution (useful when
	// profiling protocol logic). Output is bit-for-bit identical to the
	// parallel path.
	Sequential bool
	// Workers bounds the worker-pool size for node execution and
	// sharded delivery. 0 means GOMAXPROCS, with rounds too sparse to
	// pay for a worker barrier (fewer than parallelGrain runners, or
	// messages to deliver) run inline; 1 is equivalent to Sequential.
	// Values above 1 force the sharded parallel path even on small
	// inputs, which tests use to exercise it.
	Workers int
	// Adversary installs the fault plane (see Adversary). nil runs the
	// fault-free fast path with no per-message checks; runs with an
	// installed adversary remain a pure function of (protocol, Seed,
	// Adversary) at every worker count.
	Adversary *Adversary
	// Interrupt, if non-nil, is polled at every round boundary; when it
	// reports true the engine stops before running the next round and
	// Interrupted() reports true. It is how deadline-aware callers
	// (context cancellation, per-request timeouts) bound a run without
	// perturbing it: an uninterrupted run is bit-identical with the
	// check installed, since the poll happens between rounds and
	// consumes no protocol randomness. The function must be safe to
	// call from the engine's driving goroutine.
	Interrupt func() bool
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Sequential {
		return 1
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Engine drives a set of nodes through synchronous rounds.
type Engine struct {
	cfg     Config
	nodes   []Node
	halters []Halter // halters[i] non-nil iff nodes[i] implements Halter
	ctxs    []Ctx
	rands   []rng.Source

	// Routing table (see probe): filled at New, read-only afterwards,
	// so concurrent senders share it without locks.
	idents     []ids.ID // by node index
	route      []routeSlot
	routeShift uint // 64 - log2(len(route))

	// Columnar inbox index: node i's inbox is the slice
	// arena[inOff[i] : inOff[i]+inCnt[i]] of its delivery shard's
	// arena. inPos is the scatter cursor. Destinations a shard did not
	// touch keep a stale inOff but an inCnt of zero, reset from the
	// shard's previous touched list, so per-round work is proportional
	// to traffic, not to N.
	inOff, inCnt, inPos []int32

	// Active-set scheduler state. active lists unparked nodes in
	// ascending index order; runList is the merge of active with parked
	// nodes woken by mail or by their deadline, and is what actually
	// runs next round.
	active  []int32
	runList []int32
	scratch []int32 // swap space for rebuilding active/runList
	woken   []int32 // scratch: the round's mail and deadline wakes

	// Parking state. parked[i] marks node i as outside the active set
	// (halted, asleep toward a deadline, or crashed), so a surviving
	// message wakes it; the sequential sender pass writes it before the
	// sharded delivery reads it. A sleeping node has a deadline entry
	// in the bucket for round dueAt[i] (0: no live entry). Entries are
	// cancelled lazily: a mail wake or a re-park only resets dueAt, and
	// popping a bucket skips entries dueAt no longer names. sleepers
	// counts live entries; Run keeps ticking while it is positive.
	parked    []bool
	dueAt     []int32
	deadlines []deadlineBucket
	sleepers  int

	// Outbox slab: each sender's first outbox capacity is carved from a
	// block shared with its index neighbours, allocated on the block's
	// first send. Node handlers run concurrently, so outMu guards the
	// block table; each node carves only once.
	outMu     sync.Mutex
	outBlocks []outBlock

	// shards own disjoint contiguous destination ranges of shardSize
	// indices each: node i's inbox lives in shards[i/shardSize].
	shards    []shardState
	shardSize int

	// sendPerm is the scratch permutation for send-cap sampling; the
	// sender pass is sequential, so one buffer serves every node.
	sendPerm []int

	// adv is the compiled fault plane; nil when no adversary is
	// installed, in which case delivery takes the unchecked fast path.
	adv *advState

	metrics     Metrics
	round       int
	inited      bool
	interrupted bool
}

// shardState is one delivery worker's private accumulator. Shards own
// disjoint contiguous destination ranges, so they never contend. The
// tail padding keeps neighbouring shards' hot fields off a shared
// cache line.
type shardState struct {
	arena   []Wire  // flat inbox storage for the shard's destinations
	touched []int32 // destinations that received messages this round
	wake    []int32 // parked destinations among touched
	perm    []int   // scratch permutation for receive-cap sampling
	maxRecv int
	drops   int64

	// Fault-plane state (adversary runs only): the holdback queue of
	// delayed messages destined for this shard's range, and the fault
	// accounting merged into Metrics each round.
	held      []heldWire
	advDrops  int64
	advDelays int64
	_         [64]byte
}

// deadlineBucket holds the nodes sleeping until one round, in the
// order they parked; the engine keeps buckets in ascending round order.
type deadlineBucket struct {
	round int32
	nodes []int32
}

// outBlock is one outbox slab block: outboxInit wires and destination
// slots for each of outboxBlockNodes consecutive node indices.
type outBlock struct {
	w []Wire
	d []int32
}

const (
	// outboxInit is a sender's first outbox capacity: typical
	// O(log n)-fan-out senders reach their steady state in one or two
	// growths instead of doubling up from 1.
	outboxInit = 16
	// outboxBlockNodes is how many consecutive node indices share an
	// outbox slab block.
	outboxBlockNodes = 64
)

// Ctx is a node's handle to the engine, valid for the duration of the
// run. All methods must be called only from the owning node's Init or
// Round.
type Ctx struct {
	engine *Engine
	// Index is the node's position in [0, N): engine-level bookkeeping
	// only; protocols must address peers by ID.
	Index int
	// ID is this node's identifier.
	ID ids.ID
	// Rand is the node's private random stream.
	Rand *rng.Source

	// Columnar outbox: outW[k] goes to node index outD[k].
	outW []Wire
	outD []int32

	sentUnits int
	halted    bool
	// sleepUntil is the deadline requested by SleepUntil during the
	// current Init or Round; the sender pass consumes and clears it.
	sleepUntil int32
}

// New builds an engine running the given nodes. Node identifiers are
// assigned as random distinct 64-bit values so that minimum-ID
// elections are non-trivial.
func New(cfg Config, nodes []Node) *Engine {
	if len(nodes) != cfg.N {
		panic(fmt.Sprintf("sim: %d nodes for config N=%d", len(nodes), cfg.N))
	}
	n := cfg.N
	e := &Engine{
		cfg:     cfg,
		nodes:   nodes,
		halters: make([]Halter, n),
		ctxs:    make([]Ctx, n),
		rands:   make([]rng.Source, n),
		idents:  make([]ids.ID, n),
		inOff:   make([]int32, n),
		inCnt:   make([]int32, n),
		inPos:   make([]int32, n),
		parked:  make([]bool, n),
	}
	root := rng.New(cfg.Seed)
	idStream := root.Split(0xed5)
	e.makeRoute(n)
	for i := 0; i < n; i++ {
		id := ids.ID(idStream.Uint64())
		for id == ids.Nil || !e.routeInsert(id, int32(i)) {
			id = ids.ID(idStream.Uint64())
		}
		e.idents[i] = id
	}
	for i := 0; i < n; i++ {
		e.rands[i] = *root.Split(uint64(i) + 1)
		e.ctxs[i] = Ctx{
			engine: e,
			Index:  i,
			ID:     e.idents[i],
			Rand:   &e.rands[i],
		}
		if h, ok := nodes[i].(Halter); ok {
			e.halters[i] = h
		}
	}
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	e.shards = make([]shardState, w)
	e.shardSize = (n + w - 1) / w
	if e.shardSize < 1 {
		e.shardSize = 1
	}
	e.outBlocks = make([]outBlock, (n+outboxBlockNodes-1)/outboxBlockNodes)
	e.metrics.PerNodeSent = make([]int64, n)
	e.metrics.PerNodeRecv = make([]int64, n)
	e.adv = compileAdversary(cfg.Adversary, n)
	return e
}

// routeSlot is one routing-table slot. idx is the node index plus one,
// so idx 0 marks an empty slot and the zero ID stays routable.
type routeSlot struct {
	id  ids.ID
	idx int32
}

// fibHash is 2^64 divided by the golden ratio: multiplying by it and
// keeping the top bits (Fibonacci hashing) spreads IDs over the table.
const fibHash = 0x9e3779b97f4a7c15

// makeRoute sizes an empty routing table for n IDs: a power of two of
// at least max(2n, 2) slots, so every probe chain ends at an empty one.
func (e *Engine) makeRoute(n int) {
	k := bits.Len(uint(max(2*n, 2) - 1))
	e.route = make([]routeSlot, 1<<k)
	e.routeShift = uint(64 - k)
}

// probe returns id's slot, or the empty slot that ends its linear
// probe chain. At a load factor of at most one half that is usually
// the first slot probed.
//
//overlay:hotpath
func (e *Engine) probe(id ids.ID) *routeSlot {
	mask := uint64(len(e.route) - 1)
	for s := uint64(id) * fibHash >> e.routeShift; ; s = (s + 1) & mask {
		if slot := &e.route[s]; slot.idx == 0 || slot.id == id {
			return slot
		}
	}
}

// routeInsert adds id as node index i. It reports false, and changes
// nothing, when id is already present.
func (e *Engine) routeInsert(id ids.ID, i int32) bool {
	slot := e.probe(id)
	if slot.idx != 0 {
		return false
	}
	*slot = routeSlot{id: id, idx: i + 1}
	return true
}

// lookup resolves an identifier to a node index, once per Send.
//
//overlay:hotpath
func (e *Engine) lookup(id ids.ID) (int32, bool) {
	slot := e.probe(id)
	return slot.idx - 1, slot.idx != 0
}

// panicUnknown reports a send to an identifier outside the simulation.
func panicUnknown(from, to ids.ID) {
	panic(fmt.Sprintf("sim: node %v sent to unknown id %v", from, to))
}

// IDs returns the identifier of every node by index. The slice is owned
// by the engine; callers must not modify it.
func (e *Engine) IDs() []ids.ID { return e.idents }

// IndexOf resolves an identifier to a node index, for test inspection.
func (e *Engine) IndexOf(id ids.ID) (int, bool) {
	i, ok := e.lookup(id)
	return int(i), ok
}

// NumNodes returns N.
func (e *Engine) NumNodes() int { return e.cfg.N }

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// NumActive returns the number of nodes that have not halted: the
// active set plus the nodes asleep toward a deadline. The scheduler
// only spends time on the active set (plus parked nodes woken by mail
// or by their deadline) each round.
func (e *Engine) NumActive() int {
	if !e.inited {
		return e.cfg.N
	}
	return len(e.active) + e.sleepers
}

// Metrics returns the accumulated communication metrics.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// inboxOf returns node i's inbox for the current round: a slice of its
// delivery shard's arena, capped so appends cannot clobber neighbours.
//
//overlay:hotpath
func (e *Engine) inboxOf(i int32) []Wire {
	cnt := e.inCnt[i]
	if cnt == 0 {
		return nil
	}
	off := e.inOff[i]
	return e.shards[int(i)/e.shardSize].arena[off : off+cnt : off+cnt]
}

// Halt marks the node as locally terminated: after this round it is
// parked with no deadline, woken only by mail. The engine stops when
// all nodes are halted and no messages remain in flight.
func (c *Ctx) Halt() { c.halted = true }

// SleepUntil parks the node after the current Init or Round until
// round r or its next surviving message, whichever comes first: its
// Round is not invoked in the empty rounds between. A node should
// sleep only through rounds in which an empty inbox would leave it
// idle. r at or before the next round is a no-op, and the request
// lasts one park: a woken node that does not sleep again stays active.
// A halted node ignores it. Run keeps counting rounds while a deadline
// is pending, so sleeping never changes a run's round count.
func (c *Ctx) SleepUntil(r int) {
	if r > c.engine.round+1 {
		c.sleepUntil = int32(r)
	}
}

// NumNodes exposes N. The paper only requires nodes to know an upper
// bound L ≥ log n; protocols should prefer LogBound.
func (c *Ctx) NumNodes() int { return c.engine.cfg.N }

// Round returns the current engine round (1 for the first Round call;
// 0 during Init). Protocols use it to follow globally agreed phase
// schedules, which the model permits since rounds are synchronous.
func (c *Ctx) Round() int { return c.engine.round }

// LogBound returns L = ⌈log₂ N⌉ (at least 1), the known upper bound on
// log n the paper's algorithms take as input.
func (c *Ctx) LogBound() int { return LogBound(c.engine.cfg.N) }

// LogBound returns ⌈log₂ n⌉, at least 1.
func LogBound(n int) int {
	if n <= 2 {
		return 1
	}
	// ⌈log₂ n⌉ = bit length of n-1 for n ≥ 2.
	return bits.Len(uint(n - 1))
}

// halted reports node i's halt state, preferring its Halter if present.
func (e *Engine) halted(i int32) bool {
	if h := e.halters[i]; h != nil {
		return h.Halted()
	}
	return e.ctxs[i].halted
}

// Run executes rounds until the network quiesces — every node has
// halted, no deadline is pending, and no messages remain in flight —
// or maxRounds elapse, returning the number of rounds executed. The
// in-flight condition honors the wake-on-message guarantee: a message
// sent to a halted node by the last active sender still gets
// delivered (one wake round) before the engine stops. A pending
// deadline keeps empty rounds ticking, exactly as if the sleeper had
// run them idle; a sleeper whose crash round comes first keeps them
// ticking only until it dies.
func (e *Engine) Run(maxRounds int) int {
	e.initNodes()
	for r := 0; r < maxRounds; r++ {
		if len(e.runList) == 0 && e.sleepers == 0 && !e.pendingHeld() {
			break
		}
		if e.cfg.Interrupt != nil && e.cfg.Interrupt() {
			e.interrupted = true
			break
		}
		e.step()
	}
	return e.round
}

// Interrupted reports that a Run stopped because Config.Interrupt
// fired (as opposed to quiescing or exhausting its round budget). The
// network state is whatever the completed rounds left behind; callers
// treat an interrupted run as void.
func (e *Engine) Interrupted() bool { return e.interrupted }

// pendingHeld reports whether any delivery shard still holds delayed
// messages; the engine keeps ticking (possibly empty) rounds until the
// holdback queues drain, so a delayed message can still wake a halted
// network.
func (e *Engine) pendingHeld() bool {
	if e.adv == nil {
		return false
	}
	for s := range e.shards {
		if len(e.shards[s].held) > 0 {
			return true
		}
	}
	return false
}

// RunOne executes exactly one round (after lazily initializing nodes).
func (e *Engine) RunOne() {
	e.initNodes()
	e.step()
}

func (e *Engine) initNodes() {
	if e.inited {
		return
	}
	e.inited = true
	e.runList = make([]int32, 0, e.cfg.N)
	for i := 0; i < e.cfg.N; i++ {
		// A node crashed at round <= 0 is dead from the start: it never
		// runs Init and never joins a run list.
		if e.adv != nil && e.adv.deadFromStart(int32(i)) {
			e.parked[i] = true
			continue
		}
		e.runList = append(e.runList, int32(i))
	}
	e.forEach(len(e.runList), len(e.runList), func(k int) {
		i := e.runList[k]
		e.nodes[i].Init(&e.ctxs[i])
	})
	e.deliver()
}

func (e *Engine) step() {
	e.round++
	run := e.runList
	e.metrics.NodeRounds += int64(len(run))
	e.forEach(len(run), len(run), func(k int) {
		i := run[k]
		e.nodes[i].Round(&e.ctxs[i], e.inboxOf(i))
	})
	// Inboxes are consumed; the delivery pass resets the arenas (and
	// the per-destination counts, via each shard's touched list) before
	// refilling them for the next round.
	e.deliver()
}

// parallelGrain is the least work, in runners or in messages to
// deliver, for which a round under the Workers: 0 default fans out to
// the worker pool. Below it the goroutine barrier costs more than it
// saves — a sparse repair round at n=4096 has a few hundred runners —
// and stalls the whole round when another goroutine holds one of the
// CPUs.
const parallelGrain = 1024

// forEach runs fn(0..k-1) across the worker pool, or inline when the
// engine is effectively sequential or, under the Workers: 0 default,
// when the round's work is below parallelGrain. Either way the output
// is identical: every fn writes only state its own index owns.
func (e *Engine) forEach(k, work int, fn func(int)) {
	w := len(e.shards)
	if w < 2 || k < 2 || e.cfg.Workers == 0 && work < parallelGrain {
		for i := 0; i < k; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (k + w - 1) / w
	for s := 0; s < w; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > k {
			hi = k
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// deliver moves every queued outgoing message into its destination
// inbox, enforcing the send cap then the receive cap, and rebuilds the
// active set and next-round run list.
//
// The sender pass is sequential in node-index order (it owns the
// send-cap rng draws and the sender-side metrics). Delivery itself is
// sharded: destination indices are partitioned into contiguous ranges,
// and each shard worker scans all outbox destination columns in
// (sender-index, send-order), scattering messages routed into its own
// range into its flat arena, so each inbox segment is filled in
// exactly the order the sequential merge produces, with no locking.
func (e *Engine) deliver() {
	run := e.runList
	// deliverRound is the round the scattered messages will be consumed
	// in, and the round the runners' park decisions are taken against.
	deliverRound := int32(e.round + 1)

	// Sender pass: caps, sender-side metrics, and each runner's park
	// decision. The park marks must be final before the sharded
	// delivery reads them: a message to a node that parks this very
	// round has to wake it next round.
	roundSentMax := 0
	fresh := 0
	next := e.scratch[:0]
	for _, i := range run {
		ctx := &e.ctxs[i]
		sent := ctx.sentUnits
		ctx.sentUnits = 0
		if e.cfg.SendCap > 0 && sent > e.cfg.SendCap {
			// Enforce the cap by dropping a random subset of the
			// sender's messages and record the violation: correct
			// protocols never hit this.
			sent = capOutbox(ctx, e.cfg.SendCap, &e.sendPerm)
			e.metrics.SendCapViolations++
		}
		e.metrics.PerNodeSent[i] += int64(sent)
		e.metrics.TotalMessages += int64(len(ctx.outW))
		fresh += len(ctx.outW)
		e.metrics.TotalUnits += int64(sent)
		if sent > roundSentMax {
			roundSentMax = sent
		}
		next = e.settle(i, ctx, deliverRound, next)
	}
	e.scratch, e.active = e.active, next

	// Sharded delivery into the flat per-shard arenas.
	work := fresh
	for s := range e.shards {
		work += len(e.shards[s].held)
	}
	e.forEach(len(e.shards), work, func(s int) {
		lo := int32(s * e.shardSize)
		hi := lo + int32(e.shardSize)
		if hi > int32(e.cfg.N) {
			hi = int32(e.cfg.N)
		}
		if e.adv == nil {
			e.deliverShard(&e.shards[s], run, lo, hi)
		} else {
			e.deliverShardFaulty(&e.shards[s], run, lo, hi, deliverRound)
		}
	})

	// Merge shard accumulators (deterministic: max and sums).
	roundRecvMax := 0
	for s := range e.shards {
		sc := &e.shards[s]
		if sc.maxRecv > roundRecvMax {
			roundRecvMax = sc.maxRecv
		}
		e.metrics.RecvDrops += sc.drops
		e.metrics.FaultDrops += sc.advDrops
		e.metrics.FaultDelays += sc.advDelays
	}
	e.metrics.RoundMaxSent = append(e.metrics.RoundMaxSent, roundSentMax)
	e.metrics.RoundMaxRecv = append(e.metrics.RoundMaxRecv, roundRecvMax)

	// Outboxes are fully drained; reset them keeping capacity. Wires
	// are pointer-free, so stale tails pin nothing.
	for _, i := range run {
		ctx := &e.ctxs[i]
		ctx.outW = ctx.outW[:0]
		ctx.outD = ctx.outD[:0]
	}

	// Next round runs the active set plus every parked node woken by
	// mail or by its deadline. Shard wake lists cover disjoint ascending
	// ranges, so sorting each and concatenating them in shard order
	// yields a sorted list. A mail wake cancels the node's pending
	// deadline before the due bucket pops, so no node wakes twice.
	woken := e.woken[:0]
	for s := range e.shards {
		w := e.shards[s].wake
		slices.Sort(w)
		woken = append(woken, w...)
	}
	if len(e.deadlines) > 0 {
		for _, j := range woken {
			if e.dueAt[j] != 0 {
				e.dueAt[j] = 0
				e.sleepers--
			}
		}
		n := len(woken)
		woken = e.popDue(deliverRound, woken)
		if len(woken) > n {
			slices.Sort(woken)
		}
	}
	e.woken = woken
	e.runList = mergeSorted(e.runList[:0], e.active, woken)
}

// settle files node i, which just ran, for round r: active, parked
// toward its SleepUntil deadline, or parked with no deadline (halted
// or crashed). Active nodes are appended to next.
//
//overlay:hotpath
func (e *Engine) settle(i int32, ctx *Ctx, r int32, next []int32) []int32 {
	until := ctx.sleepUntil
	ctx.sleepUntil = 0
	switch {
	case e.halted(i) || e.adv != nil && e.adv.dead(i, r):
		e.parked[i] = true
	case until > r:
		e.parked[i] = true
		e.sleep(i, until)
	default:
		e.parked[i] = false
		next = append(next, i)
	}
	return next
}

// sleep files a deadline entry for node i. A node that crashes before
// its deadline is filed under its crash round instead: the entry keeps
// the rounds it would have idled through ticking, then retires without
// waking it.
//
//overlay:hotpath
func (e *Engine) sleep(i, until int32) {
	key := until
	if e.adv != nil && e.adv.hasCrash && e.adv.crashRound[i] < key {
		key = e.adv.crashRound[i]
	}
	if e.dueAt == nil {
		e.dueAt = make([]int32, e.cfg.N)
	}
	e.dueAt[i] = key
	e.sleepers++
	// Buckets are few and new deadlines are usually the latest, so a
	// scan from the back finds the slot.
	k := len(e.deadlines)
	for k > 0 && e.deadlines[k-1].round > key {
		k--
	}
	if k == 0 || e.deadlines[k-1].round != key {
		e.deadlines = slices.Insert(e.deadlines, k, deadlineBucket{round: key})
		k++
	}
	b := &e.deadlines[k-1]
	b.nodes = append(b.nodes, i)
}

// popDue pops the deadline buckets due by round r, appending the nodes
// whose entries are still live and who are alive at r to out. Entries
// of crashed nodes retire without waking anyone.
//
//overlay:hotpath
func (e *Engine) popDue(r int32, out []int32) []int32 {
	for len(e.deadlines) > 0 && e.deadlines[0].round <= r {
		b := &e.deadlines[0]
		for _, i := range b.nodes {
			if e.dueAt[i] != b.round {
				continue // superseded by a mail wake or a later park
			}
			e.dueAt[i] = 0
			e.sleepers--
			if e.adv == nil || !e.adv.dead(i, r) {
				out = append(out, i)
			}
		}
		last := len(e.deadlines) - 1
		copy(e.deadlines, e.deadlines[1:])
		e.deadlines[last] = deadlineBucket{}
		e.deadlines = e.deadlines[:last]
	}
	return out
}

// mergeSorted appends the merge of the ascending, disjoint lists a and
// b to dst.
//
//overlay:hotpath
func mergeSorted(dst, a, b []int32) []int32 {
	ai := 0
	for _, j := range b {
		for ai < len(a) && a[ai] < j {
			dst = append(dst, a[ai])
			ai++
		}
		dst = append(dst, j)
	}
	return append(dst, a[ai:]...)
}

// deliverShard fills the shard's arena with the messages destined for
// [lo, hi): a count pass over the destination columns sizes the
// per-destination segments (CSR-style offsets), a scatter pass copies
// the wires in (sender-index, send-order), and a final pass applies
// the receive cap and receiver-side metrics. Per-destination counts
// from the previous round are zeroed via the shard's old touched list,
// so the work is proportional to traffic rather than to N.
//
//overlay:hotpath
func (e *Engine) deliverShard(sc *shardState, run []int32, lo, hi int32) {
	e.resetShard(sc)

	// Count pass: scan only the 4-byte destination columns.
	total := int32(0)
	for _, i := range run {
		for _, d := range e.ctxs[i].outD {
			if d < lo || d >= hi {
				continue
			}
			if e.inCnt[d] == 0 {
				sc.touched = append(sc.touched, d)
			}
			e.inCnt[d]++
			total++
		}
	}
	if total == 0 {
		return
	}
	e.layoutArena(sc, total)

	// Scatter pass: cache-linear copies into the arena.
	for _, i := range run {
		ctx := &e.ctxs[i]
		for k, d := range ctx.outD {
			if d < lo || d >= hi {
				continue
			}
			p := e.inPos[d]
			sc.arena[p] = ctx.outW[k]
			e.inPos[d] = p + 1
		}
	}

	e.applyRecvCaps(sc)
}

// resetShard clears the previous round's per-shard delivery state. The
// arena's wires are pointer-free, so truncation alone releases nothing
// to the GC and costs nothing.
//
//overlay:hotpath
func (e *Engine) resetShard(sc *shardState) {
	for _, j := range sc.touched {
		e.inCnt[j] = 0
	}
	sc.touched = sc.touched[:0]
	sc.arena = sc.arena[:0]
	sc.wake = sc.wake[:0]
	sc.maxRecv = 0
	sc.drops = 0
	sc.advDrops = 0
	sc.advDelays = 0
}

// layoutArena assigns per-destination offsets (segments in
// first-arrival order of the touched list — contiguity is all inboxOf
// needs) and sizes the arena.
//
//overlay:hotpath
func (e *Engine) layoutArena(sc *shardState, total int32) {
	off := int32(0)
	for _, j := range sc.touched {
		e.inOff[j] = off
		e.inPos[j] = off
		off += e.inCnt[j]
	}
	if cap(sc.arena) < int(total) {
		sc.arena = make([]Wire, total)
	} else {
		sc.arena = sc.arena[:total]
	}
}

// applyRecvCaps is the final delivery pass shared by the fast and
// fault paths: receive-cap enforcement, receiver-side metrics, and the
// wake list for parked destinations.
//
//overlay:hotpath
func (e *Engine) applyRecvCaps(sc *shardState) {
	for _, j := range sc.touched {
		seg := sc.arena[e.inOff[j] : e.inOff[j]+e.inCnt[j]]
		units := 0
		for k := range seg {
			units += int(seg[k].Units)
		}
		if e.cfg.RecvCap > 0 && units > e.cfg.RecvCap {
			units = e.capInbox(sc, j)
			sc.drops++
		}
		e.metrics.PerNodeRecv[j] += int64(units)
		if units > sc.maxRecv {
			sc.maxRecv = units
		}
		// Wake a parked destination only if messages actually survived
		// the cap: a fully-dropped inbox is no mail, and the contract
		// says a parked node with an empty inbox is not ticked.
		if e.inCnt[j] > 0 && e.parked[j] {
			sc.wake = append(sc.wake, j)
		}
	}
}

// deliverShardFaulty is deliverShard with the adversary consulted on
// every message. Fresh messages routed into [lo, hi) are dropped,
// delayed into the shard's holdback queue, or delivered; held messages
// coming due this round are merged ahead of fresh traffic (in the
// order they were held, which is itself deterministic). Both the count
// and scatter passes evaluate the same pure fate function, so they
// agree without storing per-message decisions, and no pass consults an
// rng stream — the fault plane never perturbs protocol randomness.
//
//overlay:hotpath
func (e *Engine) deliverShardFaulty(sc *shardState, run []int32, lo, hi, r int32) {
	adv := e.adv
	e.resetShard(sc)

	// Count pass. Held messages due this round go first; a held message
	// is re-checked against the schedule at its release round — its
	// destination may have crashed, or a partition may have formed
	// around it, while it was in flight.
	total := int32(0)
	nHeld := len(sc.held) // entries delayed this round are appended past here
	for k := 0; k < nHeld; k++ {
		hm := &sc.held[k]
		if hm.due != r {
			continue
		}
		if adv.dead(hm.dest, r) || adv.cut(hm.from, hm.dest, r) {
			sc.advDrops++
			continue
		}
		if e.inCnt[hm.dest] == 0 {
			sc.touched = append(sc.touched, hm.dest)
		}
		e.inCnt[hm.dest]++
		total++
	}
	for _, i := range run {
		ctx := &e.ctxs[i]
		for k, d := range ctx.outD {
			if d < lo || d >= hi {
				continue
			}
			if adv.dead(d, r) || adv.cut(i, d, r) {
				sc.advDrops++
				continue
			}
			drop, delay := adv.fate(r, i, k)
			if drop {
				sc.advDrops++
				continue
			}
			if delay > 0 {
				sc.held = append(sc.held, heldWire{w: ctx.outW[k], from: i, dest: d, due: r + delay})
				sc.advDelays++
				continue
			}
			if e.inCnt[d] == 0 {
				sc.touched = append(sc.touched, d)
			}
			e.inCnt[d]++
			total++
		}
	}
	if total == 0 {
		sc.compactHeld(r)
		return
	}
	e.layoutArena(sc, total)

	// Scatter pass: held first (same predicates as the count pass),
	// then fresh messages.
	for k := 0; k < nHeld; k++ {
		hm := &sc.held[k]
		if hm.due != r || adv.dead(hm.dest, r) || adv.cut(hm.from, hm.dest, r) {
			continue
		}
		p := e.inPos[hm.dest]
		sc.arena[p] = hm.w
		e.inPos[hm.dest] = p + 1
	}
	for _, i := range run {
		ctx := &e.ctxs[i]
		for k, d := range ctx.outD {
			if d < lo || d >= hi {
				continue
			}
			if adv.dead(d, r) || adv.cut(i, d, r) {
				continue
			}
			drop, delay := adv.fate(r, i, k)
			if drop || delay > 0 {
				continue
			}
			p := e.inPos[d]
			sc.arena[p] = ctx.outW[k]
			e.inPos[d] = p + 1
		}
	}
	sc.compactHeld(r)
	e.applyRecvCaps(sc)
}

// compactHeld removes holdback entries that were delivered (or dropped
// dead) at round r, preserving queue order. heldWire is pointer-free,
// so the stale tail pins nothing.
//
//overlay:hotpath
func (sc *shardState) compactHeld(r int32) {
	kept := 0
	for k := range sc.held {
		if sc.held[k].due == r {
			continue
		}
		sc.held[kept] = sc.held[k]
		kept++
	}
	sc.held = sc.held[:kept]
}

// capInbox keeps a random subset of destination j's arena segment
// within the receive cap, preserving arrival order among the kept, and
// returns the unit count actually delivered.
func (e *Engine) capInbox(sc *shardState, j int32) int {
	off := int(e.inOff[j])
	seg := sc.arena[off : off+int(e.inCnt[j])]
	keep := chooseWithin(len(seg), e.cfg.RecvCap,
		func(k int) int { return int(seg[k].Units) }, e.ctxs[j].Rand, &sc.perm)
	kept, used := 0, 0
	for k := range seg {
		if !keep[k] {
			continue
		}
		seg[kept] = seg[k]
		used += int(seg[k].Units)
		kept++
	}
	e.inCnt[j] = int32(kept)
	return used
}

// capOutbox keeps a random subset of outgoing messages within cap
// units, preserving emission order among the kept, compacting all
// outbox columns in lockstep, and returns the units actually sent.
func capOutbox(c *Ctx, cap int, perm *[]int) int {
	keep := chooseWithin(len(c.outW), cap,
		func(k int) int { return int(c.outW[k].Units) }, c.Rand, perm)
	kept, used := 0, 0
	for k := range c.outW {
		if !keep[k] {
			continue
		}
		c.outW[kept] = c.outW[k]
		c.outD[kept] = c.outD[k]
		used += int(c.outW[k].Units)
		kept++
	}
	c.outW = c.outW[:kept]
	c.outD = c.outD[:kept]
	return used
}

// chooseWithin marks a uniformly random subset of n items whose unit
// sizes fit within cap, greedily in random order. perm is a reusable
// scratch permutation buffer (grown as needed and written back), so a
// capped node costs no allocation beyond the keep mask.
func chooseWithin(n, limit int, units func(int) int, src *rng.Source, perm *[]int) []bool {
	keep := make([]bool, n)
	p := *perm
	if cap(p) < n {
		p = make([]int, n)
	}
	p = p[:n]
	*perm = p
	src.PermInto(p)
	used := 0
	for _, i := range p {
		u := units(i)
		if used+u <= limit {
			used += u
			keep[i] = true
		}
	}
	return keep
}
