// Package overlay is the singlewriter corpus's stand-in for the root
// package: Session fields may be written only from session.go and
// churn.go.
package overlay

// Session is the stub session: one mutable field behind the contract.
type Session struct {
	epoch int
}

// ApplyEpoch advances the session; legal, session.go owns the state.
func (s *Session) ApplyEpoch(e int) {
	s.epoch = e
}

// Restore rolls the session back; also a registered mutator.
func (s *Session) Restore(e int) {
	s.epoch = e
}

// SetFaults arms a fault plan; a registered mutator too.
func (s *Session) SetFaults(e int) {
	s.epoch = e
}

// Epoch reads the current epoch; reads are unrestricted.
func (s *Session) Epoch() int { return s.epoch }
