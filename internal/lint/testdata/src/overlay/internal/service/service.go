// Package service is the singlewriter corpus's supervisor stand-in:
// session mutators may only be called from the worker goroutine's
// contexts — worker methods, JobFunc literals, and JobFunc-shaped
// bodies — and everything else is flagged.
package service

import (
	"context"
	"overlay"
)

// JobFunc mirrors the real package's job signature.
type JobFunc func(context.Context, *overlay.Session) (any, bool, error)

// Supervisor owns the session and the worker goroutine.
type Supervisor struct {
	sess *overlay.Session
	jobs chan JobFunc
}

// Do submits a job to the worker.
func (sup *Supervisor) Do(fn JobFunc) { sup.jobs <- fn }

// loop is the worker goroutine: mutations are legal here.
func (sup *Supervisor) loop(ctx context.Context) {
	sup.sess.ApplyEpoch(1)
	_ = ctx
}

// seal is a worker helper; also licensed.
func (sup *Supervisor) seal() { sup.sess.Restore(0) }

var (
	_ = (*Supervisor).loop
	_ = (*Supervisor).seal
)

// Shutdown is not a worker method: mutating here races the worker.
func (sup *Supervisor) Shutdown() {
	sup.sess.Restore(0) // want `Session\.Restore called outside a supervisor job function`
}

// Handle shows the legal path — wrap mutations in a JobFunc — next to
// the illegal direct call, and the goroutine-escape inside a job.
func Handle(sup *Supervisor, e int) {
	sup.Do(func(ctx context.Context, sess *overlay.Session) (any, bool, error) {
		sess.ApplyEpoch(e)
		sess.SetFaults(e)
		defer func() { sess.Restore(0) }()
		go func() {
			sess.Restore(1) // want `Session\.Restore called outside a supervisor job function`
		}()
		_ = ctx
		return nil, false, nil
	})
	sup.sess.ApplyEpoch(e) // want `Session\.ApplyEpoch called outside a supervisor job function`
	sup.sess.SetFaults(e)  // want `Session\.SetFaults called outside a supervisor job function`
}

// applyOne is a factored-out job body: JobFunc-shaped, so its own
// mutations are licensed — and calling it requires a license.
func applyOne(ctx context.Context, sess *overlay.Session, e int) (any, bool, error) {
	sess.ApplyEpoch(e)
	_ = ctx
	return nil, false, nil
}

// Relay legally reuses the body from inside a job.
func Relay(sup *Supervisor, e int) {
	sup.Do(func(ctx context.Context, sess *overlay.Session) (any, bool, error) {
		return applyOne(ctx, sess, e)
	})
}

// Sneak calls the job body on the caller's goroutine: flagged.
func Sneak(sup *Supervisor, e int) {
	_, _, _ = applyOne(context.TODO(), sup.sess, e) // want `job-function body applyOne called outside a supervisor job function`
}
