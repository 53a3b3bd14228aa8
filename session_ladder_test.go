package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ladderSessionOptions builds the canonical ladder-forcing setup the
// tests below share: a measured session whose fault plan partitions
// the first failure domain (a contiguous rack of ids) away from the
// rest of the network for `window` rounds starting right after the
// build. Patch attempts die inside the window — the census sweep
// cannot reach the severed rack — so committing an epoch requires the
// ladder to escalate until an attempt starts past the window.
func ladderSessionOptions(buildRounds, window, patchRetries, rebuildRetries int) *SessionOptions {
	return &SessionOptions{
		Accounting:     Measured,
		PatchRetries:   patchRetries,
		RebuildRetries: rebuildRetries,
		Build: Options{
			Seed:         7,
			MessageLevel: true,
			Faults: &FaultPlan{
				Seed:    3,
				Domains: 8,
				DomainCuts: []DomainCut{
					{Domain: 0, From: buildRounds + 1, Until: buildRounds + window},
				},
			},
		},
	}
}

// openLadderSession opens an n-node line session under the
// ladder-forcing fault plan above.
func openLadderSession(t *testing.T, n, window, patchRetries, rebuildRetries int) *Session {
	t.Helper()
	res, err := BuildTree(lineInput(n), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(res, ladderSessionOptions(res.Stats.Rounds, window, patchRetries, rebuildRetries))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionLadderRecoversFromPartition pins the tentpole behavior:
// an adversary that defeats the single-attempt semantics outright is
// outlasted by the ladder, and every rung is itemized on the bill.
func TestSessionLadderRecoversFromPartition(t *testing.T) {
	const n, window = 192, 160

	// Single-attempt semantics: the partition defeats the epoch.
	flat := openLadderSession(t, n, window, 0, 0)
	joins, leaves := measuredEpochArgs(flat)
	if _, err := flat.ApplyEpoch(joins, leaves); err == nil {
		t.Fatal("single-attempt epoch survived the partition; the ladder test proves nothing")
	}

	// Ladder armed: the same epoch must commit, with the rungs billed.
	sess := openLadderSession(t, n, window, 1, 3)
	bill, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatalf("ladder did not outlast the partition: %v", err)
	}
	if bill.Attempts < 2 {
		t.Fatalf("epoch committed in %d attempts; the adversary never bit", bill.Attempts)
	}
	if len(bill.AttemptBills) != bill.Attempts {
		t.Fatalf("bill itemizes %d attempt bills for %d attempts", len(bill.AttemptBills), bill.Attempts)
	}
	if !strings.Contains(bill.Path, "+") && !strings.Contains(bill.Path, "×") {
		t.Errorf("multi-attempt epoch billed path %q, want the run-length ladder grammar", bill.Path)
	}
	sum := 0
	for _, a := range bill.AttemptBills {
		sum += a.Rounds
	}
	if sum != bill.Rounds {
		t.Errorf("attempt bills sum to %d rounds, epoch bill says %d", sum, bill.Rounds)
	}
	checkSessionTree(t, sess)
	t.Logf("ladder: %d attempts, path %s, %d rounds", bill.Attempts, bill.Path, bill.Rounds)
}

// TestSessionLadderDeterministicAcrossWorkers: the full retry/rollback
// sequence — every attempt bill included — is a pure function of the
// session inputs at every worker count and under the sequential
// engine.
func TestSessionLadderDeterministicAcrossWorkers(t *testing.T) {
	const n, window = 192, 160
	run := func(workers int, sequential bool) string {
		res, err := BuildTree(lineInput(n), &Options{Seed: 7, MessageLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		opt := ladderSessionOptions(res.Stats.Rounds, window, 1, 3)
		opt.Build.Workers = workers
		opt.Build.Sequential = sequential
		sess, err := Open(res, opt)
		if err != nil {
			t.Fatal(err)
		}
		joins, leaves := measuredEpochArgs(sess)
		bill, err := sess.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("workers=%d sequential=%v: %v", workers, sequential, err)
		}
		return fmt.Sprintf("%+v|%v|%+v", *bill, sess.Members(), *sess.Tree())
	}
	base := run(0, true)
	for workers := 1; workers <= 16; workers++ {
		if got := run(workers, false); got != base {
			t.Fatalf("workers=%d diverged from sequential:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

// TestSessionLadderZeroFaultBitCompat: with no adversary the ladder is
// invisible — a session with retries armed produces byte-identical
// bills, members, and trees to one without, because attempt 0 always
// runs on the undisturbed epoch seed.
func TestSessionLadderZeroFaultBitCompat(t *testing.T) {
	plain, _ := openLineSession(t, 256, &SessionOptions{Accounting: Measured})
	armed, _ := openLineSession(t, 256, &SessionOptions{
		Accounting: Measured, PatchRetries: 3, RebuildRetries: 3,
	})
	for e := 0; e < 3; e++ {
		joins, leaves := measuredEpochArgs(plain)
		pb, err := plain.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d plain: %v", e, err)
		}
		ab, err := armed.ApplyEpoch(joins, leaves)
		if err != nil {
			t.Fatalf("epoch %d armed: %v", e, err)
		}
		if !reflect.DeepEqual(pb, ab) {
			t.Fatalf("epoch %d bills diverged:\n%+v\nvs\n%+v", e, *pb, *ab)
		}
		if !reflect.DeepEqual(plain.Members(), armed.Members()) || !reflect.DeepEqual(plain.Tree(), armed.Tree()) {
			t.Fatalf("epoch %d state diverged with retries armed", e)
		}
	}
}

// TestSessionCheckpointRestoreRoundTrip: Checkpoint before an epoch,
// apply it, Restore — the session must serve bit-identical RouteLookup
// results to the pre-epoch state, and re-applying the same epoch must
// reproduce the same bill, members, and tree (the checkpoint restored
// the clock and seed stream, not just the topology).
func TestSessionCheckpointRestoreRoundTrip(t *testing.T) {
	sess, _ := openLineSession(t, 128, &SessionOptions{Accounting: Measured})
	joins, leaves := measuredEpochArgs(sess)

	lookups := func(s *Session) []string {
		m := s.Members()
		pairs := [][2]int{{m[0], m[len(m)-1]}, {m[len(m)/2], m[1]}, {m[7], m[7]}}
		out := make([]string, 0, len(pairs))
		for _, p := range pairs {
			path, err := s.RouteLookup(p[0], p[1])
			out = append(out, fmt.Sprintf("%v/%v", path, err))
		}
		return out
	}

	cp := sess.Checkpoint()
	before := lookups(sess)

	bill1, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	after := lookups(sess)
	if reflect.DeepEqual(before, after) {
		t.Fatal("epoch did not change any lookup; round trip would be vacuous")
	}

	if err := sess.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := lookups(sess); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored lookups diverged:\n%v\nvs\n%v", got, before)
	}
	if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
		t.Fatalf("restore left epoch=%d bills=%d", sess.Epoch(), len(sess.Bills()))
	}

	// The checkpoint is reusable and replay is exact.
	bill2, err := sess.ApplyEpoch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bill1, bill2) {
		t.Fatalf("replayed epoch bills diverged:\n%+v\nvs\n%+v", *bill1, *bill2)
	}
	if got := lookups(sess); !reflect.DeepEqual(got, after) {
		t.Fatalf("replayed lookups diverged:\n%v\nvs\n%v", got, after)
	}

	// Restoring a foreign checkpoint must be refused.
	other, _ := openLineSession(t, 128, &SessionOptions{})
	if err := other.Restore(cp); err == nil {
		t.Error("foreign checkpoint restored without error")
	}
	if err := sess.Restore(nil); err == nil {
		t.Error("nil checkpoint restored without error")
	}
}

// TestSessionCheckpointRestoreTwice: checkpoints share the session's
// members, tree and bills instead of copying them, so a checkpoint
// restored twice, with different epochs committed after it each time,
// must give back bit-identical state both times, and so must a second
// checkpoint taken in between. The first checkpoint is taken after
// three epochs, when the bills slice has spare capacity: a share that
// let the session append into it would let the epoch committed after
// the first restore overwrite the second checkpoint's last bill.
func TestSessionCheckpointRestoreTwice(t *testing.T) {
	sess, _ := openLineSession(t, 128, &SessionOptions{Accounting: Measured})
	apply := func(leaveAt int) {
		t.Helper()
		m := sess.Members()
		if _, err := sess.ApplyEpoch([]int{sess.NextID()}, []int{m[leaveAt]}); err != nil {
			t.Fatal(err)
		}
	}
	type state struct {
		members      []int
		tree         *Tree
		bills        []EpochBill
		epoch, round int
	}
	snap := func() state {
		return state{sess.Members(), copyTree(sess.Tree()), sess.Bills(), sess.Epoch(), sess.ClockRound()}
	}
	restore := func(cp *Checkpoint, want state, what string) {
		t.Helper()
		if err := sess.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if got := snap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored state diverged:\n%+v\nvs\n%+v", what, got, want)
		}
	}

	for e := 0; e < 3; e++ {
		apply(5 + e)
	}
	cp1, want1 := sess.Checkpoint(), snap()
	apply(20)
	cp2, want2 := sess.Checkpoint(), snap()
	restore(cp1, want1, "first restore of cp1")
	apply(60)
	apply(61)
	if reflect.DeepEqual(snap(), want1) || reflect.DeepEqual(snap(), want2) {
		t.Fatal("epochs changed nothing; the restore checks would be vacuous")
	}
	restore(cp2, want2, "restore of cp2")
	restore(cp1, want1, "second restore of cp1")
}

// TestSessionLookupAfterAbortedEpoch: when every rung of the ladder is
// defeated the session rolls back to the pre-epoch checkpoint and must
// keep serving lookups from the last committed overlay — and lookups
// naming the epoch's would-be joiners fail with the reasoned
// not-a-member error, not a panic or a stale route.
func TestSessionLookupAfterAbortedEpoch(t *testing.T) {
	// A 25% drop rate defeats every patch and every rebuild at any
	// clock offset, so the ladder must exhaust and abort.
	res, err := BuildTree(lineInput(192), &Options{Seed: 7, MessageLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(res, &SessionOptions{
		Accounting:     Measured,
		PatchRetries:   1,
		RebuildRetries: 1,
		Build: Options{
			Seed:         7,
			MessageLevel: true,
			Faults:       &FaultPlan{Seed: 3, DropProb: 0.25},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	preMembers := append([]int(nil), sess.Members()...)
	joins, leaves := measuredEpochArgs(sess)

	bill, err := sess.ApplyEpoch(joins, leaves)
	if err == nil {
		t.Fatal("epoch committed under a 25% drop rate")
	}
	if bill == nil || !bill.Aborted {
		t.Fatalf("want an aborted bill with the ladder itemized, got %+v (err %v)", bill, err)
	}
	if want := 4; bill.Attempts != want { // 2 patch rungs + 2 rebuild rungs
		t.Errorf("aborted bill reports %d attempts, want %d", bill.Attempts, want)
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Errorf("abort error %q does not mention the rollback", err)
	}
	if bill.AbortReason == "" {
		t.Error("aborted bill carries no reason")
	}

	// Rollback: the session is bit-identical to the pre-epoch state...
	if !reflect.DeepEqual(sess.Members(), preMembers) {
		t.Fatalf("membership changed across the aborted epoch")
	}
	if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
		t.Fatalf("aborted epoch advanced the session: epoch=%d bills=%d", sess.Epoch(), len(sess.Bills()))
	}
	checkSessionTree(t, sess)

	// ...and keeps serving lookups from it, including for the nodes the
	// aborted epoch would have removed.
	m := sess.Members()
	for _, pair := range [][2]int{{m[0], m[len(m)-1]}, {leaves[0], leaves[1]}} {
		if _, err := sess.RouteLookup(pair[0], pair[1]); err != nil {
			t.Errorf("lookup %d -> %d after rollback: %v", pair[0], pair[1], err)
		}
	}
	// The would-be joiners never became members.
	if _, err := sess.RouteLookup(m[0], joins[0]); !errors.Is(err, ErrNotMember) {
		t.Errorf("lookup of never-admitted joiner %d: got %v, want ErrNotMember", joins[0], err)
	}
}
