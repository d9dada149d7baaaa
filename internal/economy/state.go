package economy

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/structure"
)

// This file exports the economy's mutable state for persistence. The
// exported structs are plain data — no behavior, no unexported fields —
// so internal/persist can serialize them without reaching into the
// economy, and a restored economy continues byte-for-byte: same credits,
// same regret entries with the same LRU clocks, same failure history,
// same investment backoff.

// RegretEntryState is one live regret-ledger row.
type RegretEntryState struct {
	ID      structure.ID
	Regret  money.Amount
	Touched int64
}

// LedgerState is the exported form of one Ledger.
type LedgerState struct {
	Tenant string
	Credit money.Amount
	// Clock is the ledger's logical LRU clock; Entries are sorted by ID.
	Clock   int64
	Entries []RegretEntryState

	Spend         money.Amount
	ProfitTotal   money.Amount
	Invested      money.Amount
	Recovered     money.Amount
	RegretAccrued money.Amount
	RegretDropped money.Amount
	InvestCount   int64
	DeclinedCount int64
	Queries       int64
	CacheAnswered int64
}

// OwnerState records which tenant financed one resident structure.
type OwnerState struct {
	ID     structure.ID
	Tenant string
}

// FailCountState records a structure's failure history (investment
// backoff input).
type FailCountState struct {
	ID    structure.ID
	Count int64
}

// MarketState is the exported form of the shared structure pool's
// bookkeeping. Residency itself lives in the cache's own state.
type MarketState struct {
	Owners       []OwnerState
	FailCounts   []FailCountState
	BuildUsage   cost.Usage
	FailureCount int64
}

// State is the exported form of an Economy: the communal pool (altruistic
// provider only), every tenant ledger, and the market bookkeeping. All
// slices are sorted so repeated snapshots of the same economy are
// byte-identical.
type State struct {
	Provider Provider
	Pool     *LedgerState
	Tenants  []LedgerState
	Market   MarketState
}

// snapshotLedger exports one ledger, its entries sorted by ID.
func (e *Economy) snapshotLedger(l *Ledger) LedgerState {
	st := LedgerState{
		Tenant:        l.tenant,
		Credit:        l.credit,
		Clock:         l.clock,
		Spend:         l.spend,
		ProfitTotal:   l.profitTotal,
		Invested:      l.invested,
		Recovered:     l.recovered,
		RegretAccrued: l.regretAccrued,
		RegretDropped: l.regretDropped,
		InvestCount:   l.investCount,
		DeclinedCount: l.declinedCount,
		Queries:       l.queries,
		CacheAnswered: l.cacheAnswered,
	}
	ca := e.cfg.Cache
	rows := append(e.scratchRows[:0], l.entries...)
	slices.SortFunc(rows, func(a, b regretEntry) int { return cmp.Compare(ca.Rank(a.h), ca.Rank(b.h)) })
	e.scratchRows = rows
	for _, en := range rows {
		st.Entries = append(st.Entries, RegretEntryState{ID: ca.Structure(en.h).ID, Regret: en.regret, Touched: en.touched})
	}
	return st
}

// restoreLedger rebuilds one ledger with the economy's configured cap.
func (e *Economy) restoreLedger(st LedgerState) (*Ledger, error) {
	l := newLedger(st.Tenant, 0, e.cfg.LedgerCap)
	l.credit = st.Credit
	l.clock = st.Clock
	l.spend = st.Spend
	l.profitTotal = st.ProfitTotal
	l.invested = st.Invested
	l.recovered = st.Recovered
	l.regretAccrued = st.RegretAccrued
	l.regretDropped = st.RegretDropped
	l.investCount = st.InvestCount
	l.declinedCount = st.DeclinedCount
	l.queries = st.Queries
	l.cacheAnswered = st.CacheAnswered
	for _, es := range st.Entries {
		h, err := e.market.handleOf(es.ID)
		if err != nil {
			return nil, fmt.Errorf("economy: ledger %q: %w", st.Tenant, err)
		}
		if l.find(h) >= 0 {
			return nil, fmt.Errorf("economy: ledger %q: duplicate entry %s", st.Tenant, es.ID)
		}
		l.entries = append(l.entries, regretEntry{h: h, regret: es.Regret, touched: es.Touched})
	}
	return l, nil
}

// Snapshot exports the economy's state. The cache is not included: the
// economy shares it with the scheme, and the owner of both (a shard, a
// simulation) snapshots it alongside.
func (e *Economy) Snapshot() *State {
	ca := e.cfg.Cache
	st := &State{Provider: e.cfg.Provider}
	if e.pool != nil {
		pl := e.snapshotLedger(e.pool)
		st.Pool = &pl
	}
	names := make([]string, 0, len(e.tenants))
	for name := range e.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Tenants = append(st.Tenants, e.snapshotLedger(e.tenants[name]))
	}
	m := e.market
	for _, h := range ca.Ordered() {
		id := ca.Structure(h).ID
		if int(h) < len(m.owners) && m.owners[h].set {
			st.Market.Owners = append(st.Market.Owners, OwnerState{ID: id, Tenant: m.owners[h].tenant})
		}
		if n := m.fails(h); n > 0 {
			st.Market.FailCounts = append(st.Market.FailCounts, FailCountState{ID: id, Count: int64(n)})
		}
	}
	st.Market.BuildUsage = m.buildUsage
	st.Market.FailureCount = m.failureCount
	return st
}

// Restore replaces the economy's mutable state with a previously
// exported one. The receiving economy must be fresh (straight from New)
// and configured with the same provider the snapshot was taken under: a
// provider change redefines whose money is whose, so the snapshot no
// longer describes this economy. Every structure ID the state names — in
// a ledger, an owner or a failure count — must resolve against the
// catalog; one that does not fails the restore and leaves the economy
// fresh.
func (e *Economy) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("economy: nil state")
	}
	if st.Provider != e.cfg.Provider {
		return fmt.Errorf("economy: snapshot provider %v != configured %v", st.Provider, e.cfg.Provider)
	}
	if len(e.tenants) != 0 {
		return fmt.Errorf("economy: restore into non-fresh economy")
	}
	if (st.Pool != nil) != (e.cfg.Provider == ProviderAltruistic) {
		return fmt.Errorf("economy: snapshot pool/provider mismatch")
	}
	tenants := make(map[string]*Ledger, len(st.Tenants))
	for _, ls := range st.Tenants {
		if _, dup := tenants[ls.Tenant]; dup {
			return fmt.Errorf("economy: duplicate tenant %q in snapshot", ls.Tenant)
		}
		l, err := e.restoreLedger(ls)
		if err != nil {
			return err
		}
		tenants[ls.Tenant] = l
	}
	pool := e.pool
	if st.Pool != nil {
		var err error
		if pool, err = e.restoreLedger(*st.Pool); err != nil {
			return err
		}
	}
	m := e.market
	owners := make([]structure.Handle, len(st.Market.Owners))
	for i, os := range st.Market.Owners {
		h, err := m.handleOf(os.ID)
		if err != nil {
			return fmt.Errorf("economy: owner of %s: %w", os.ID, err)
		}
		owners[i] = h
	}
	fails := make([]structure.Handle, len(st.Market.FailCounts))
	for i, fs := range st.Market.FailCounts {
		h, err := m.handleOf(fs.ID)
		if err != nil {
			return fmt.Errorf("economy: failure count of %s: %w", fs.ID, err)
		}
		fails[i] = h
	}
	e.tenants, e.pool = tenants, pool
	for i, h := range owners {
		m.setOwner(h, st.Market.Owners[i].Tenant, true)
	}
	for i, h := range fails {
		m.setFails(h, int(st.Market.FailCounts[i].Count))
	}
	m.buildUsage = st.Market.BuildUsage
	m.failureCount = st.Market.FailureCount
	return nil
}
