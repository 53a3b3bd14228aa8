package overlay

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSessionConcurrentReadsDuringEpoch pins the single-writer /
// multi-reader contract: reader goroutines hammer every read-side
// method while the writer applies measured (message-level) epochs.
// Run under -race, any unsynchronized access fails the build; the
// assertions check that readers always observe a committed state —
// an epoch count matching the bills, lookups that either route
// between members or fail with a reasoned error, never torn state.
func TestSessionConcurrentReadsDuringEpoch(t *testing.T) {
	sess, _ := openLineSession(t, 48, &SessionOptions{Accounting: Measured})

	const epochs = 4
	done := make(chan struct{})
	var lookups, reasoned atomic.Int64
	var wg, warm sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		warm.Add(1)
		go func() {
			defer wg.Done()
			// Warm exactly once, even on an error-path return, so the
			// writer's warm.Wait() can never hang on a failing reader.
			markWarm := sync.OnceFunc(warm.Done)
			defer markWarm()
			for {
				select {
				case <-done:
					return
				default:
				}
				members := sess.Members()
				if len(members) == 0 {
					t.Error("reader observed an empty membership")
					return
				}
				from := members[0]
				to := members[len(members)-1]
				// The membership may shift between the snapshot and the
				// lookup: a departed/not-member error is a legal answer,
				// a panic or a malformed path is not.
				path, err := sess.RouteLookup(from, to)
				switch {
				case err == nil:
					if len(path) == 0 || path[0] != from || path[len(path)-1] != to {
						t.Errorf("torn lookup path %v for %d->%d", path, from, to)
						return
					}
					lookups.Add(1)
				case errors.Is(err, ErrDeparted) || errors.Is(err, ErrNotMember):
					reasoned.Add(1)
				default:
					t.Errorf("lookup %d->%d: %v", from, to, err)
					return
				}
				bills := sess.Bills()
				if e := sess.Epoch(); len(bills) > epochs || e > epochs {
					t.Errorf("reader observed %d bills, epoch %d (max %d)", len(bills), e, epochs)
					return
				}
				if tree := sess.Tree(); tree == nil || len(tree.Rank) == 0 {
					t.Error("reader observed a nil/empty tree")
					return
				}
				if edges := sess.Chord(); len(edges) == 0 {
					t.Error("reader observed an empty chord overlay")
					return
				}
				_ = sess.ClockRound()
				_ = sess.NextID()
				markWarm()
			}
		}()
	}

	// The single writer: measured epochs with real joins and leaves —
	// started only after every reader completes one full loop, so the
	// epochs provably overlap live reads (and the writer cannot finish
	// before any reader is even scheduled).
	warm.Wait()
	next := sess.NextID()
	for e := 0; e < epochs; e++ {
		members := sess.Members()
		joins := []int{next, next + 1}
		next += 2
		leaves := []int{members[len(members)/2]}
		if _, err := sess.ApplyEpoch(joins, leaves); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	close(done)
	wg.Wait()
	if lookups.Load() == 0 {
		t.Fatal("readers never completed a successful lookup")
	}
	if got := sess.Epoch(); got != epochs {
		t.Fatalf("epoch = %d, want %d", got, epochs)
	}
}

// TestApplyEpochCtxExpired pins the deadline contract at the session
// layer: a context that is already dead stops the epoch before any
// state changes, the error wraps both ErrInterrupted and the context
// cause, and the session is untouched.
func TestApplyEpochCtxExpired(t *testing.T) {
	sess, _ := openLineSession(t, 24, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := sess.Checkpoint()
	bill, err := sess.ApplyEpochCtx(ctx, []int{24}, nil)
	if bill != nil {
		t.Fatalf("expired epoch returned a bill: %+v", bill)
	}
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrInterrupted and context.Canceled", err)
	}
	if sess.Epoch() != 0 || len(sess.Bills()) != 0 {
		t.Fatalf("session advanced across an interrupted epoch: epoch %d, %d bills", sess.Epoch(), len(sess.Bills()))
	}
	// The checkpoint still restores cleanly — the rollback machinery
	// was not corrupted by the interrupt.
	if err := sess.Restore(before); err != nil {
		t.Fatalf("restore after interrupt: %v", err)
	}

	// A live context leaves the path unchanged.
	bill, err = sess.ApplyEpochCtx(context.Background(), []int{24}, nil)
	if err != nil || bill.Epoch != 0 {
		t.Fatalf("live-context epoch: %+v, %v", bill, err)
	}
}

// probeCtx is a context whose Err poll runs probe. ApplyEpochCtx polls
// Err at the epoch start, at rung boundaries and between engine rounds;
// Done is non-nil so the session installs the poll, and never closes,
// so the epoch is never interrupted.
type probeCtx struct {
	context.Context
	done  chan struct{}
	probe func()
}

func (c *probeCtx) Done() <-chan struct{} { return c.done }

func (c *probeCtx) Err() error {
	c.probe()
	return nil
}

// TestSessionReadsProceedDuringEpoch pins that an epoch computes off
// the reader lock: at every poll of a measured epoch — including the
// polls between engine rounds — a reader goroutine's Members, Epoch,
// RouteLookup, Chord and Checkpoint must return promptly and show the
// pre-epoch state, and once ApplyEpochCtx returns they show the
// committed one. A session that holds its reader lock for the whole
// epoch blocks every such read until the epoch ends, so the test then
// fails by its 10 s timeout.
func TestSessionReadsProceedDuringEpoch(t *testing.T) {
	sess, _ := openLineSession(t, 64, &SessionOptions{Accounting: Measured})
	pre := sess.Members()
	from, to := pre[0], pre[len(pre)-1]
	prePath, err := sess.RouteLookup(from, to)
	if err != nil {
		t.Fatal(err)
	}
	preChord := sess.Chord()
	joins, leaves := measuredEpochArgs(sess)

	type reads struct {
		members []int
		epoch   int
		path    []int
		err     error
		chord   [][2]int
		cp      *Checkpoint
	}
	polls, blocked := 0, false
	ctx := &probeCtx{Context: context.Background(), done: make(chan struct{})}
	ctx.probe = func() {
		polls++
		if blocked {
			return
		}
		got := make(chan reads, 1)
		go func() {
			var r reads
			r.members = sess.Members()
			r.epoch = sess.Epoch()
			r.path, r.err = sess.RouteLookup(from, to)
			r.chord = sess.Chord()
			r.cp = sess.Checkpoint()
			got <- r
		}()
		select {
		case r := <-got:
			if !reflect.DeepEqual(r.members, pre) || r.epoch != 0 || r.err != nil ||
				!reflect.DeepEqual(r.path, prePath) || !reflect.DeepEqual(r.chord, preChord) ||
				!reflect.DeepEqual(r.cp.members, pre) || r.cp.clock.Epoch() != 0 {
				t.Errorf("poll %d: reads left the pre-epoch state: epoch %d, path %v (%v)", polls, r.epoch, r.path, r.err)
			}
		case <-time.After(10 * time.Second):
			blocked = true
			t.Errorf("poll %d: reads still blocked behind the in-flight epoch after 10 s", polls)
		}
	}

	if _, err := sess.ApplyEpochCtx(ctx, joins, leaves); err != nil {
		t.Fatal(err)
	}
	// One poll at the epoch start, one at the patch rung, the rest
	// between engine rounds.
	if polls < 3 {
		t.Fatalf("only %d polls: the probe never ran between engine rounds", polls)
	}

	post := sess.Members()
	if reflect.DeepEqual(post, pre) || sess.Epoch() != 1 {
		t.Fatalf("epoch not published: epoch %d, %d members", sess.Epoch(), len(post))
	}
	if _, err := sess.RouteLookup(from, joins[0]); err != nil {
		t.Errorf("lookup to joiner %d after the epoch: %v", joins[0], err)
	}
	if _, err := sess.RouteLookup(from, leaves[0]); !errors.Is(err, ErrDeparted) {
		t.Errorf("lookup to leaver %d after the epoch: %v, want ErrDeparted", leaves[0], err)
	}
	if reflect.DeepEqual(sess.Chord(), preChord) {
		t.Error("chord view not invalidated by the published epoch")
	}
	if cp := sess.Checkpoint(); !reflect.DeepEqual(cp.members, post) || cp.clock.Epoch() != 1 {
		t.Errorf("checkpoint after the epoch: epoch %d, %d members", cp.clock.Epoch(), len(cp.members))
	}
}
