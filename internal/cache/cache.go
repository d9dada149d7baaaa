// Package cache tracks the state of the cloud cache: which structures
// (columns, indexes, CPU nodes) are resident, which are being built, how
// much disk they occupy, when each was last used, and how much maintenance
// rent has accrued against each since it was last paid off (§V-C
// footnote 3).
//
// The cache is purely mechanical: it does not price anything and takes no
// decisions. Schemes and the economy decide what to build and what to
// evict; the simulator advances the clock.
package cache

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/money"
	"repro/internal/structure"
)

// Entry is one resident structure plus its bookkeeping.
type Entry struct {
	S *structure.Structure
	// H is the structure's handle in the owning cache's table.
	H structure.Handle

	// BuiltAt is when the structure became usable.
	BuiltAt time.Duration
	// FirstUsed is when a selected plan first employed the structure
	// (zero until then). Value rates are measured from first use so the
	// idle window while the rest of a plan's structure set was still
	// building does not dilute them.
	FirstUsed time.Duration
	// LastUsed is when a selected plan last employed the structure.
	LastUsed time.Duration
	// Uses counts selected plans that employed the structure.
	Uses int64

	// BuildPrice is what the cloud paid to build the structure, the
	// basis of amortization (Eq. 6) and of the maintenance-failure
	// threshold.
	BuildPrice money.Amount
	// AmortRemaining is the unamortized share of BuildPrice still to be
	// recovered from future queries.
	AmortRemaining money.Amount

	// MaintPaidUntil is the clock point up to which maintenance rent
	// has been charged to users (footnote 3: each selected plan pays the
	// accumulated maintenance since the previous payer).
	MaintPaidUntil time.Duration
	// UnpaidMaint is rent accrued but not yet recovered from any user.
	UnpaidMaint money.Amount
	// EarnedValue accumulates the measured value the structure has
	// produced: amortization shares collected plus its share of each
	// chosen plan's price advantage over the back-end alternative. The
	// economy's rent-vs-yield eviction compares rent since last use
	// against EarnedValue per use.
	EarnedValue money.Amount
}

// pendingBuild is an in-flight investment.
type pendingBuild struct {
	entry   *Entry
	readyAt time.Duration
}

// Cache is the mutable cache state. It is not safe for concurrent use; a
// simulation, or one server shard, owns exactly one cache, and that
// owner's optimizer, market and ledgers all read it.
//
// The cache also owns the handle table of its structure universe: every
// structure it has seen has a dense structure.Handle, and Structure maps
// a handle back to the immutable descriptor. Residency and pending
// builds are slices indexed by handle, and so are the per-structure
// states its users keep (the market's owners and failure counts, the
// optimizer's price memo, regret entries). Callers intern only
// structures minted from the catalog (the structure constructors or
// economy.ResolveID), so the table is bounded by the catalog's columns,
// its index candidates and cpu:2..MaxNodes. The table keeps each
// handle's rank in ID-string order: wherever iteration order is
// observable (Entries, CompleteDue, ForEach, LRU ties, snapshots, the
// economy's invest order) it follows that rank, which is exactly the
// order a sort by ID would give.
type Cache struct {
	clock time.Duration

	ids     map[structure.ID]structure.Handle
	structs []*structure.Structure // by handle
	order   []structure.Handle     // handles in ID order
	rank    []int32                // rank[h]: position of h in order

	entries  []*Entry        // by handle; nil when not resident
	pending  []*pendingBuild // by handle; nil when no build is in flight
	nEntries int
	nPending int
	resident int64 // disk bytes of resident structures
	capacity int64 // 0 = unlimited (economy schemes); >0 = hard cap (net-only)

	// nodes counts resident extra CPU nodes and maxNode is the highest
	// resident node ordinal (1 when none).
	nodes   int
	maxNode int

	// epoch counts mutations that can change what is resident or being
	// built (build starts, completions, evictions). Callers memoizing
	// residency-dependent computations (the optimizer's build pricing)
	// invalidate when it moves.
	epoch int64
}

// New creates an empty cache. capacityBytes of 0 means unlimited.
func New(capacityBytes int64) *Cache {
	if capacityBytes < 0 {
		capacityBytes = 0
	}
	return &Cache{
		ids:      make(map[structure.ID]structure.Handle),
		capacity: capacityBytes,
		maxNode:  1,
	}
}

// Intern returns the structure's handle, assigning the next one on first
// sight. Interning an index also interns the columns it is built from.
// A structure whose ID is already known keeps its first descriptor.
func (c *Cache) Intern(st *structure.Structure) structure.Handle {
	if h, ok := c.ids[st.ID]; ok {
		return h
	}
	h := structure.Handle(len(c.structs))
	c.ids[st.ID] = h
	c.structs = append(c.structs, st)
	c.entries = append(c.entries, nil)
	c.pending = append(c.pending, nil)
	c.rank = append(c.rank, 0)
	pos, _ := slices.BinarySearchFunc(c.order, st.ID, func(x structure.Handle, id structure.ID) int {
		return strings.Compare(string(c.structs[x].ID), string(id))
	})
	c.order = slices.Insert(c.order, pos, h)
	for i := pos; i < len(c.order); i++ {
		c.rank[c.order[i]] = int32(i)
	}
	for _, col := range st.IndexColumns {
		c.Intern(col)
	}
	return h
}

// Lookup returns the handle of an interned ID, or structure.NoHandle.
func (c *Cache) Lookup(id structure.ID) structure.Handle {
	if h, ok := c.ids[id]; ok {
		return h
	}
	return structure.NoHandle
}

// Structure returns the descriptor behind a handle.
func (c *Cache) Structure(h structure.Handle) *structure.Structure { return c.structs[h] }

// Rank returns the handle's position in ID-string order among all
// interned structures. Sorting handles by rank sorts them by ID.
func (c *Cache) Rank(h structure.Handle) int32 { return c.rank[h] }

// Ordered returns every interned handle in ID order. The slice is shared
// and valid until the next Intern; callers must not mutate it.
func (c *Cache) Ordered() []structure.Handle { return c.order }

// Clock returns the cache's current time.
func (c *Cache) Clock() time.Duration { return c.clock }

// Epoch returns the residency-mutation counter: it moves whenever a
// build starts, completes, or a structure is evicted, and never
// otherwise. Memoize residency-dependent results against it.
func (c *Cache) Epoch() int64 { return c.epoch }

// Advance moves the clock forward. Moving backwards is a programming error
// and panics: simulation time is monotone.
func (c *Cache) Advance(now time.Duration) {
	if now < c.clock {
		panic(fmt.Sprintf("cache: clock moved backwards: %v -> %v", c.clock, now))
	}
	c.clock = now
}

// Capacity returns the disk cap in bytes (0 = unlimited).
func (c *Cache) Capacity() int64 { return c.capacity }

// ResidentBytes returns disk currently occupied by resident structures.
func (c *Cache) ResidentBytes() int64 { return c.resident }

// Has reports whether the structure is resident (built and not evicted).
// Any handle is accepted; NoHandle is never resident.
func (c *Cache) Has(h structure.Handle) bool {
	_, ok := c.Get(h)
	return ok
}

// Get returns the entry for a resident structure.
func (c *Cache) Get(h structure.Handle) (*Entry, bool) {
	if uint(h) >= uint(len(c.entries)) {
		return nil, false
	}
	e := c.entries[h]
	return e, e != nil
}

// Building reports whether a build for the structure is in flight.
func (c *Cache) Building(h structure.Handle) bool {
	return uint(h) < uint(len(c.pending)) && c.pending[h] != nil
}

// Len returns the number of resident structures.
func (c *Cache) Len() int { return c.nEntries }

// ForEach calls f for every resident entry in ID order. It is the
// allocation-free alternative to Entries. f must not add or remove
// entries.
func (c *Cache) ForEach(f func(*Entry)) {
	for _, h := range c.order {
		if e := c.entries[h]; e != nil {
			f(e)
		}
	}
}

// Entries returns resident entries sorted by structure ID for deterministic
// iteration.
func (c *Cache) Entries() []*Entry {
	out := make([]*Entry, 0, c.nEntries)
	c.ForEach(func(e *Entry) { out = append(out, e) })
	return out
}

// StartBuild registers an investment: the structure becomes resident at
// readyAt. Duplicate builds (already resident or already pending) are
// rejected so the economy cannot double-spend.
func (c *Cache) StartBuild(st *structure.Structure, readyAt time.Duration, buildPrice money.Amount) error {
	if st == nil {
		return fmt.Errorf("cache: nil structure")
	}
	h := c.Intern(st)
	if c.Has(h) {
		return fmt.Errorf("cache: %s already resident", st.ID)
	}
	if c.Building(h) {
		return fmt.Errorf("cache: %s already building", st.ID)
	}
	if readyAt < c.clock {
		readyAt = c.clock
	}
	c.pending[h] = &pendingBuild{
		entry: &Entry{
			S:              c.structs[h],
			H:              h,
			BuildPrice:     buildPrice,
			AmortRemaining: buildPrice,
		},
		readyAt: readyAt,
	}
	c.nPending++
	c.epoch++
	return nil
}

// CompleteDue promotes pending builds whose ready time has passed. It
// returns the newly resident entries sorted by structure ID.
func (c *Cache) CompleteDue() []*Entry {
	if c.nPending == 0 {
		return nil
	}
	var done []*Entry
	for _, h := range c.order {
		pb := c.pending[h]
		if pb == nil || pb.readyAt > c.clock {
			continue
		}
		pb.entry.BuiltAt = pb.readyAt
		pb.entry.LastUsed = pb.readyAt
		pb.entry.MaintPaidUntil = pb.readyAt
		c.pending[h] = nil
		c.nPending--
		c.admit(pb.entry)
		done = append(done, pb.entry)
		c.epoch++
	}
	return done
}

// admit makes an entry resident, keeping the byte and node tallies.
func (c *Cache) admit(e *Entry) {
	c.entries[e.H] = e
	c.nEntries++
	c.resident += e.S.Bytes
	if e.S.Kind == structure.KindCPUNode {
		c.nodes++
		c.maxNode = max(c.maxNode, e.S.NodeOrdinal)
	}
}

// Touch records that a selected plan used the structure now.
func (c *Cache) Touch(h structure.Handle) {
	if e, ok := c.Get(h); ok {
		if e.Uses == 0 {
			e.FirstUsed = c.clock
		}
		e.LastUsed = c.clock
		e.Uses++
	}
}

// Evict removes a resident structure and returns its entry.
func (c *Cache) Evict(h structure.Handle) (*Entry, bool) {
	e, ok := c.Get(h)
	if !ok {
		return nil, false
	}
	c.entries[h] = nil
	c.nEntries--
	c.resident -= e.S.Bytes
	if e.S.Kind == structure.KindCPUNode {
		c.nodes--
		if e.S.NodeOrdinal == c.maxNode {
			c.maxNode = 1
			c.ForEach(func(o *Entry) {
				if o.S.Kind == structure.KindCPUNode {
					c.maxNode = max(c.maxNode, o.S.NodeOrdinal)
				}
			})
		}
	}
	c.epoch++
	return e, true
}

// LRUVictims returns up to n resident structures in least-recently-used
// order, breaking ties by structure ID for determinism. CPU nodes are
// returned like any other structure; callers that only want disk residents
// can filter on Kind.
func (c *Cache) LRUVictims(n int) []*Entry {
	all := c.Entries()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].LastUsed != all[j].LastUsed {
			return all[i].LastUsed < all[j].LastUsed
		}
		return c.rank[all[i].H] < c.rank[all[j].H]
	})
	if n > len(all) {
		n = len(all)
	}
	if n < 0 {
		n = 0
	}
	return all[:n]
}

// EnsureRoom evicts LRU disk structures until adding `need` bytes fits the
// capacity. It returns the evicted entries (possibly none). With no
// capacity cap it never evicts. Structures that would still not fit (need >
// capacity) leave the cache unchanged and report false.
func (c *Cache) EnsureRoom(need int64) ([]*Entry, bool) {
	if c.capacity == 0 || need <= 0 {
		return nil, true
	}
	if need > c.capacity {
		return nil, false
	}
	var evicted []*Entry
	for c.resident+need > c.capacity {
		victims := c.LRUVictims(c.Len())
		var victim *Entry
		for _, v := range victims {
			if v.S.Bytes > 0 {
				victim = v
				break
			}
		}
		if victim == nil {
			return evicted, false
		}
		c.Evict(victim.H)
		evicted = append(evicted, victim)
	}
	return evicted, true
}

// NodeCount returns the number of resident extra CPU nodes.
func (c *Cache) NodeCount() int { return c.nodes }

// MaxNodeOrdinal returns the highest resident CPU node ordinal, or 1 when
// only the base worker exists. Plans may use nodes 1..MaxNodeOrdinal.
func (c *Cache) MaxNodeOrdinal() int { return c.maxNode }

// PendingCount returns the number of builds in flight.
func (c *Cache) PendingCount() int { return c.nPending }
