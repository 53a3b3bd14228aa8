package sim

// Metrics accumulates the communication accounting the experiments
// report: Theorem 1.1's claims are stated in rounds, per-round per-node
// message counts, and per-node message totals, all of which are
// measured here rather than assumed.
type Metrics struct {
	// TotalMessages counts delivered-or-dropped messages across the run.
	TotalMessages int64
	// TotalUnits counts message units (see Sized) across the run.
	TotalUnits int64
	// PerNodeSent[i] and PerNodeRecv[i] accumulate units per node.
	PerNodeSent, PerNodeRecv []int64
	// RoundMaxSent[r] and RoundMaxRecv[r] are the maximum units any
	// single node sent/received in round r.
	RoundMaxSent, RoundMaxRecv []int
	// SendCapViolations counts rounds-node pairs where a protocol
	// attempted to exceed its send cap (a protocol bug indicator).
	SendCapViolations int64
	// RecvDrops counts node-rounds where the receive cap forced drops
	// (expected to stay zero w.h.p. per Lemma 3.2).
	RecvDrops int64
	// FaultDrops counts messages discarded by the fault plane: random
	// losses, partition cuts, and messages addressed to crashed nodes.
	// Always zero without an installed Adversary.
	FaultDrops int64
	// FaultDelays counts messages the fault plane held back (each
	// delayed message is counted once, when first held).
	FaultDelays int64
	// NodeRounds counts node visits: the sum over rounds of how many
	// nodes ran (the active set plus parked nodes woken by mail or by
	// their deadline). Init is not a round and is not counted. A
	// sparse protocol that parks its idle nodes keeps this near its
	// message count rather than rounds × N.
	NodeRounds int64
}

// MaxPerNodeSent returns the maximum total units sent by any node, the
// quantity Theorem 1.1 bounds by O(log² n).
func (m *Metrics) MaxPerNodeSent() int64 {
	var max int64
	for _, v := range m.PerNodeSent {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxRoundSent returns the maximum units any node sent in any single
// round, the quantity the NCC0 model bounds by O(log n).
func (m *Metrics) MaxRoundSent() int {
	max := 0
	for _, v := range m.RoundMaxSent {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxRoundRecv returns the maximum units any node received in any
// single round.
func (m *Metrics) MaxRoundRecv() int {
	max := 0
	for _, v := range m.RoundMaxRecv {
		if v > max {
			max = v
		}
	}
	return max
}
