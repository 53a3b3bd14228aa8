package wft

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"overlay/internal/rng"
	"overlay/internal/sim"
)

// permTree builds a valid heap tree over n nodes whose ranks are a
// seed-determined permutation, so repair tests exercise non-identity
// node/rank mappings.
func permTree(t *testing.T, n int, seed uint64) *Tree {
	t.Helper()
	src := rng.New(seed)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	tr := &Tree{Rank: rank, NodeAt: make([]int, n), Parent: make([]int, n)}
	for v, r := range rank {
		tr.NodeAt[r] = v
	}
	for v, r := range rank {
		if r == 0 {
			tr.Root = v
			tr.Parent[v] = v
			continue
		}
		tr.Parent[v] = tr.NodeAt[(r-1)/2]
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("permTree invalid: %v", err)
	}
	return tr
}

// repairCase assembles the spec for a (dead mask, joiners) repair the
// same way the session does and returns it with the analytic oracle.
func repairCase(t *testing.T, old *Tree, dead []bool, joiners int, seed uint64) (*RepairSpec, *Tree) {
	t.Helper()
	want, err := Repair(old, dead, joiners)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	s := want.N() - joiners
	spec := &RepairSpec{
		Survivors: s,
		Joiners:   joiners,
		OldDepth:  old.Depth(),
		NewRank:   want.Rank,
	}
	anyDead := false
	for _, d := range dead {
		anyDead = anyDead || d
	}
	if anyDead {
		spec.SweepParent = SweepParents(old, dead)
	}
	if joiners > 0 {
		src := rng.New(seed)
		spec.Entry = make([]int, joiners)
		for i := range spec.Entry {
			spec.Entry[i] = want.NodeAt[src.Intn(s)]
		}
	}
	return spec, want
}

// runRepair executes a spec on the engine and returns the extracted
// tree plus the engine for metric inspection.
func runRepair(t *testing.T, spec *RepairSpec, cfg sim.Config) (*Tree, *sim.Engine, error) {
	t.Helper()
	eng, protos, budget, err := NewRepairEngine(spec, cfg)
	if err != nil {
		t.Fatalf("NewRepairEngine: %v", err)
	}
	eng.Run(budget)
	got, err := ExtractRepair(spec, protos)
	return got, eng, err
}

// TestRepairProtocolMatchesOracle pins the tentpole contract: the
// zero-fault message-level repair reproduces the analytic Repair
// bit for bit, at the exact scheduled round count, for leaves-only,
// joins-only, mixed, and near-total-loss churn.
func TestRepairProtocolMatchesOracle(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		deadFrac float64
		joiners  int
	}{
		{"leaves-only", 200, 0.15, 0},
		{"joins-only", 150, 0, 25},
		{"mixed", 256, 0.1, 30},
		{"single-survivor", 8, 0.99, 3},
		{"tiny", 2, 0.4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := permTree(t, tc.n, 0x5eed+uint64(tc.n))
			src := rng.New(0xdead + uint64(tc.n))
			var dead []bool
			anyDead := false
			if tc.deadFrac > 0 {
				dead = make([]bool, tc.n)
				alive := tc.n
				for v := range dead {
					if alive > 1 && src.Float64() < tc.deadFrac {
						dead[v] = true
						alive--
						anyDead = true
					}
				}
			}
			spec, want := repairCase(t, old, dead, tc.joiners, 0xa77a)
			got, eng, err := runRepair(t, spec, sim.Config{Seed: 0x9})
			if err != nil {
				t.Fatalf("ExtractRepair: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("measured repair diverged from oracle:\ngot  %+v\nwant %+v", got, want)
			}

			// The schedule is exact under zero faults.
			k := spec.Survivors + spec.Joiners
			sweep := 0
			if anyDead {
				sweep = 2 * (spec.OldDepth + 1)
			}
			join := 0
			if tc.joiners > 0 {
				maxHops := 0
				for x, e := range spec.Entry {
					tgt := (spec.NewRank[spec.Survivors+x] - 1) / 2
					if h := greedyHops(k, spec.NewRank[e], tgt); h > maxHops {
						maxHops = h
					}
				}
				join = maxHops + 2
			}
			d1 := 0
			for 1<<(d1+1) <= k {
				d1++
			}
			wantRounds := sweep + join + d1
			if wantRounds < 1 {
				wantRounds = 1
			}
			if eng.Round() != wantRounds {
				t.Errorf("rounds = %d, want scheduled %d", eng.Round(), wantRounds)
			}

			// Messages stay within the charged envelope: the sweep costs
			// 2(s-1), attachment at most hops+2 per joiner, the commit
			// broadcast k-1.
			charged := int64(k - 1)
			if anyDead {
				charged += int64(2 * (spec.Survivors - 1))
			}
			for x, e := range spec.Entry {
				tgt := (spec.NewRank[spec.Survivors+x] - 1) / 2
				charged += int64(greedyHops(k, spec.NewRank[e], tgt)) + 2
			}
			if m := eng.Metrics().TotalMessages; m > charged {
				t.Errorf("measured %d messages > charged envelope %d", m, charged)
			}
		})
	}
}

// TestRepairDeterministicAcrossWorkers pins bit-identical repair
// output and metrics across the sequential engine and forced worker
// counts.
func TestRepairDeterministicAcrossWorkers(t *testing.T) {
	old := permTree(t, 300, 0x7a11)
	dead := make([]bool, 300)
	src := rng.New(0x40)
	for v := range dead {
		dead[v] = src.Float64() < 0.12
	}
	dead[old.Root] = true
	spec, _ := repairCase(t, old, dead, 40, 0xa77a)

	type outcome struct {
		tree   *Tree
		rounds int
		msgs   int64
	}
	run := func(cfg sim.Config) outcome {
		cfg.Seed = 0x77
		got, eng, err := runRepair(t, spec, cfg)
		if err != nil {
			t.Fatalf("ExtractRepair: %v", err)
		}
		return outcome{got, eng.Round(), eng.Metrics().TotalMessages}
	}
	ref := run(sim.Config{Sequential: true})
	for w := 1; w <= 16; w++ {
		o := run(sim.Config{Workers: w})
		if !reflect.DeepEqual(o, ref) {
			t.Fatalf("workers=%d diverged: %+v vs %+v", w, o, ref)
		}
	}
}

// TestRepairUnderFaults drives the repair through the fault plane:
// delays stretch measured rounds without changing the result, drops
// abort extraction with an actionable error, and a crash-stop on a
// sweep node leaves a survivor uncommitted.
func TestRepairUnderFaults(t *testing.T) {
	old := permTree(t, 220, 0xbee)
	dead := make([]bool, 220)
	src := rng.New(0x41)
	for v := range dead {
		dead[v] = src.Float64() < 0.1
	}
	spec, want := repairCase(t, old, dead, 24, 0xa77a)
	base, bEng, err := runRepair(t, spec, sim.Config{Seed: 0x5})
	if err != nil {
		t.Fatalf("fault-free repair: %v", err)
	}

	t.Run("delay", func(t *testing.T) {
		adv := &sim.Adversary{Seed: 0xd, DelayProb: 0.2, DelayMax: 3}
		got, eng, err := runRepair(t, spec, sim.Config{Seed: 0x5, Adversary: adv})
		if err != nil {
			t.Fatalf("delayed repair aborted: %v", err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, base) {
			t.Error("delays changed the repaired topology")
		}
		if eng.Round() <= bEng.Round() {
			t.Errorf("delayed rounds %d not above fault-free %d", eng.Round(), bEng.Round())
		}
		if eng.Metrics().FaultDelays == 0 {
			t.Error("no delays recorded")
		}
	})

	t.Run("drop-aborts", func(t *testing.T) {
		adv := &sim.Adversary{Seed: 0xd, DropProb: 0.5}
		_, eng, err := runRepair(t, spec, sim.Config{Seed: 0x5, Adversary: adv})
		if err == nil {
			t.Fatal("heavy drops did not abort extraction")
		}
		if !strings.Contains(err.Error(), "never") {
			t.Errorf("abort error %q does not name the failure", err)
		}
		if eng.Metrics().FaultDrops == 0 {
			t.Error("no drops recorded")
		}
	})

	t.Run("crash-aborts", func(t *testing.T) {
		adv := &sim.Adversary{Crashes: []sim.Crash{{Node: 0, Round: 1}}}
		_, _, err := runRepair(t, spec, sim.Config{Seed: 0x5, Adversary: adv})
		if err == nil {
			t.Fatal("crash-stop mid-repair did not abort extraction")
		}
	})
}

// churnCase is a session-sized patch epoch: n=4096 members, 2% of
// them leaving and 2% as many joining.
func churnCase(t *testing.T) *RepairSpec {
	t.Helper()
	const n = 4096
	old := permTree(t, n, 0xc4)
	dead := make([]bool, n)
	src := rng.New(0xc5)
	for _, v := range src.SampleWithoutReplacement(n, n/50) {
		dead[v] = true
	}
	spec, _ := repairCase(t, old, dead, n/50, 0xa77a)
	return spec
}

// TestRepairParkingChangesOnlyNodeVisits runs a churn-sized repair with
// parking and with every node kept awake, under no faults, the churn
// benchmark's delays, and delays plus crash-stops: the repaired tree
// (or the abort reason), rounds, and every communication metric must
// match exactly.
func TestRepairParkingChangesOnlyNodeVisits(t *testing.T) {
	spec := churnCase(t)
	advs := map[string]*sim.Adversary{
		"none":  nil,
		"delay": {Seed: 0xd1, DelayProb: 0.05, DelayMax: 3},
		"crash": {Seed: 0xd2, DelayProb: 0.05, DelayMax: 3, Crashes: []sim.Crash{{Node: 17, Round: 4}, {Node: 4000, Round: 30}, {Node: 2, Round: 55}}},
	}
	for _, name := range []string{"none", "delay", "crash"} {
		t.Run(name, func(t *testing.T) {
			var outs [2]string
			var visits [2]int64
			for k, awake := range []bool{false, true} {
				eng, protos, budget, err := NewRepairEngine(spec, sim.Config{Seed: 0x3, Adversary: advs[name]})
				if err != nil {
					t.Fatalf("NewRepairEngine: %v", err)
				}
				for i := range protos {
					protos[i].stayAwake = awake
				}
				eng.Run(budget)
				tree, err := ExtractRepair(spec, protos)
				m := eng.Metrics()
				outs[k] = fmt.Sprintf("tree=%v err=%v rounds=%d msgs=%d units=%d drops=%d delays=%d sent=%v recv=%v maxS=%v maxR=%v",
					tree, err, eng.Round(), m.TotalMessages, m.TotalUnits, m.FaultDrops, m.FaultDelays,
					m.PerNodeSent, m.PerNodeRecv, m.RoundMaxSent, m.RoundMaxRecv)
				visits[k] = m.NodeRounds
			}
			if outs[0] != outs[1] {
				t.Fatalf("parked run diverged from the awake run:\nparked %.300s\nawake  %.300s", outs[0], outs[1])
			}
			if visits[0] >= visits[1] {
				t.Errorf("parked run made %d node visits, awake run %d", visits[0], visits[1])
			}
		})
	}
}

// TestRepairNodeRoundsTrafficProportional fences the engine cost of a
// measured patch epoch at n=4096 with 2% joins and 2% leaves: parked
// nodes run only for mail, their scheduled emissions, and the haltAt
// sweep, so node visits stay within 2k + 2·messages instead of the
// rounds × k an always-awake network costs.
func TestRepairNodeRoundsTrafficProportional(t *testing.T) {
	spec := churnCase(t)
	k := int64(spec.Survivors + spec.Joiners)
	for _, adv := range []*sim.Adversary{nil, {Seed: 0xd1, DelayProb: 0.05, DelayMax: 3}} {
		_, eng, err := runRepair(t, spec, sim.Config{Seed: 0x3, Adversary: adv})
		if err != nil {
			t.Fatalf("ExtractRepair: %v", err)
		}
		m := eng.Metrics()
		if limit := 2*k + 2*m.TotalMessages; m.NodeRounds > limit {
			t.Errorf("delays=%v: %d node-rounds over %d rounds exceeds 2k + 2·messages = %d (k=%d, %d messages)",
				adv != nil, m.NodeRounds, eng.Round(), limit, k, m.TotalMessages)
		}
	}
}
