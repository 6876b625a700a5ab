package controller

import (
	"sync"

	"meteorshower/internal/spe"
	"meteorshower/internal/statesize"
)

// State is the controller's replicable state: everything a standby needs
// to take over mid-run without reusing epoch numbers or re-profiling. The
// paper notes "the controller is not necessarily a single point of
// failure. Hot standby architecture [17] and active standby technique [18]
// can provide redundancy for the controller" (§III-A).
type State struct {
	Epoch     uint64
	Profile   statesize.Profile
	Dynamic   []string
	LastPrune uint64
}

// ExportState snapshots the replicable state.
func (c *Controller) ExportState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{
		Epoch:     c.epoch,
		Profile:   c.cfg.Profile,
		LastPrune: c.lastPrune,
	}
	for id := range c.dynamic {
		st.Dynamic = append(st.Dynamic, id)
	}
	return st
}

// ImportState installs a replicated snapshot (the promoted standby's first
// act). Epoch only moves forward so a stale snapshot cannot cause epoch
// reuse.
func (c *Controller) ImportState(st State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.Epoch > c.epoch {
		c.epoch = st.Epoch
	}
	if st.Profile.Smax > 0 {
		c.cfg.Profile = st.Profile
	}
	if st.LastPrune > c.lastPrune {
		c.lastPrune = st.LastPrune
	}
	c.dynamic = make(map[string]bool, len(st.Dynamic))
	for _, id := range st.Dynamic {
		c.dynamic[id] = true
	}
}

// Standby is a warm replica of a primary controller: it periodically pulls
// the primary's state and can be promoted into a full controller when the
// primary's node fails.
type Standby struct {
	cfg Config

	mu   sync.Mutex
	last State
	haus map[string]*spe.HAU
}

// NewStandby returns a standby that will take over with cfg (typically the
// same Config the primary was built with).
func NewStandby(cfg Config) *Standby {
	return &Standby{cfg: cfg, haus: make(map[string]*spe.HAU)}
}

// Sync replicates the primary's current state and HAU registry into the
// standby. Production systems ship this over the network; the simulation
// calls it on a timer.
func (s *Standby) Sync(primary *Controller) {
	st := primary.ExportState()
	haus := primary.hauSnapshot()
	s.mu.Lock()
	if st.Epoch >= s.last.Epoch {
		s.last = st
	}
	s.haus = haus
	s.mu.Unlock()
}

// Promote builds a fresh controller from the replicated state. The caller
// starts its Run loop; epoch numbering continues from the last sync, so
// checkpoints initiated by the old primary are never repeated.
func (s *Standby) Promote() *Controller {
	s.mu.Lock()
	st := s.last
	haus := make(map[string]*spe.HAU, len(s.haus))
	for id, h := range s.haus {
		haus[id] = h
	}
	s.mu.Unlock()

	c := New(s.cfg)
	c.SetHAUs(haus)
	c.ImportState(st)
	return c
}
