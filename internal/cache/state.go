package cache

import (
	"fmt"
	"time"

	"repro/internal/money"
	"repro/internal/structure"
)

// EntryState is the exported form of one resident entry. The structure
// itself is stored by ID only: structures are immutable and derivable
// from the catalog, so restore reconstructs them through a resolver
// instead of persisting sizes that could drift from the catalog.
type EntryState struct {
	ID             structure.ID
	BuiltAt        time.Duration
	FirstUsed      time.Duration
	LastUsed       time.Duration
	Uses           int64
	BuildPrice     money.Amount
	AmortRemaining money.Amount
	MaintPaidUntil time.Duration
	UnpaidMaint    money.Amount
	EarnedValue    money.Amount
}

// PendingState is the exported form of one in-flight build.
type PendingState struct {
	ID             structure.ID
	ReadyAt        time.Duration
	BuildPrice     money.Amount
	AmortRemaining money.Amount
}

// State is the exported form of a Cache: clock, residency and pending
// builds. Entries and pending builds are sorted by ID so repeated
// snapshots of the same cache are byte-identical.
type State struct {
	Clock    time.Duration
	Capacity int64
	Entries  []EntryState
	Pending  []PendingState
}

// Snapshot exports the cache state.
func (c *Cache) Snapshot() State {
	st := State{Clock: c.clock, Capacity: c.capacity}
	for _, e := range c.Entries() {
		st.Entries = append(st.Entries, EntryState{
			ID:             e.S.ID,
			BuiltAt:        e.BuiltAt,
			FirstUsed:      e.FirstUsed,
			LastUsed:       e.LastUsed,
			Uses:           e.Uses,
			BuildPrice:     e.BuildPrice,
			AmortRemaining: e.AmortRemaining,
			MaintPaidUntil: e.MaintPaidUntil,
			UnpaidMaint:    e.UnpaidMaint,
			EarnedValue:    e.EarnedValue,
		})
	}
	for _, h := range c.order {
		if pb := c.pending[h]; pb != nil {
			st.Pending = append(st.Pending, PendingState{
				ID:             pb.entry.S.ID,
				ReadyAt:        pb.readyAt,
				BuildPrice:     pb.entry.BuildPrice,
				AmortRemaining: pb.entry.AmortRemaining,
			})
		}
	}
	return st
}

// Restore replaces the cache's state with a previously exported one.
// Structures are rebuilt through resolve (typically economy.ResolveID
// over the scheme's catalog), so a snapshot taken against a different
// catalog fails loudly instead of restoring stale sizes. The receiving
// cache must be empty (fresh from New) and its capacity must match the
// snapshot's: a capacity change means the scheme was reconfigured and
// the snapshot no longer describes this cache.
func (c *Cache) Restore(st State, resolve func(structure.ID) (*structure.Structure, error)) error {
	if c.nEntries != 0 || c.nPending != 0 {
		return fmt.Errorf("cache: restore into non-empty cache")
	}
	if c.capacity != st.Capacity {
		return fmt.Errorf("cache: snapshot capacity %d != configured %d", st.Capacity, c.capacity)
	}
	if st.Clock < 0 {
		return fmt.Errorf("cache: snapshot clock %v is negative", st.Clock)
	}
	// Validate everything before adopting anything, so a failed restore
	// leaves the cache empty. seen marks each handle 1 once resident, 2
	// once pending.
	entries := make([]*Entry, len(st.Entries))
	pending := make([]*pendingBuild, len(st.Pending))
	seen := map[structure.Handle]int8{}
	for i, es := range st.Entries {
		h, err := c.internID(es.ID, resolve)
		if err != nil {
			return fmt.Errorf("cache: restoring %s: %w", es.ID, err)
		}
		if seen[h] != 0 {
			return fmt.Errorf("cache: duplicate entry %s in snapshot", es.ID)
		}
		seen[h] = 1
		entries[i] = &Entry{
			S:              c.structs[h],
			H:              h,
			BuiltAt:        es.BuiltAt,
			FirstUsed:      es.FirstUsed,
			LastUsed:       es.LastUsed,
			Uses:           es.Uses,
			BuildPrice:     es.BuildPrice,
			AmortRemaining: es.AmortRemaining,
			MaintPaidUntil: es.MaintPaidUntil,
			UnpaidMaint:    es.UnpaidMaint,
			EarnedValue:    es.EarnedValue,
		}
	}
	for i, ps := range st.Pending {
		h, err := c.internID(ps.ID, resolve)
		if err != nil {
			return fmt.Errorf("cache: restoring pending %s: %w", ps.ID, err)
		}
		switch seen[h] {
		case 1:
			return fmt.Errorf("cache: %s both resident and pending in snapshot", ps.ID)
		case 2:
			return fmt.Errorf("cache: duplicate pending build %s in snapshot", ps.ID)
		}
		seen[h] = 2
		pending[i] = &pendingBuild{
			entry: &Entry{
				S:              c.structs[h],
				H:              h,
				BuildPrice:     ps.BuildPrice,
				AmortRemaining: ps.AmortRemaining,
			},
			readyAt: ps.ReadyAt,
		}
	}
	c.clock = st.Clock
	for _, e := range entries {
		c.admit(e)
	}
	for _, pb := range pending {
		c.pending[pb.entry.H] = pb
		c.nPending++
	}
	return nil
}

// internID interns the structure behind an ID, resolving it only when
// the table has not seen the ID yet.
func (c *Cache) internID(id structure.ID, resolve func(structure.ID) (*structure.Structure, error)) (structure.Handle, error) {
	if h := c.Lookup(id); h != structure.NoHandle {
		return h, nil
	}
	s, err := resolve(id)
	if err != nil {
		return structure.NoHandle, err
	}
	return c.Intern(s), nil
}
