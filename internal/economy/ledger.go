package economy

import (
	"repro/internal/money"
	"repro/internal/structure"
)

// Ledger is one tenant's account with the cloud: credit, spend, profit
// and regret attribution, plus the live per-structure regret entries that
// drive the Eq. 3 investment test when the provider is selfish.
//
// Under the altruistic provider there is one communal Ledger (the pool)
// holding the account and the live regret rows — exactly the
// single-account economy of §IV — while per-tenant Ledgers act as
// mirrors: they attribute spend, profit and accrued regret to the tenant
// that generated them but carry no credit of their own. Under the
// selfish provider every tenant Ledger is a real account: it is seeded
// with the initial capital on first contact, its own regret alone
// triggers builds, and those builds are charged to (and amortized back
// into) it.
type Ledger struct {
	tenant string
	credit money.Amount

	// entries are the live regret rows (Eq. 1–2 accumulation, capped
	// per §IV-B), one per structure handle in no particular order;
	// clock is their logical LRU clock.
	entries []regretEntry
	clock   int64
	cap     int

	// Attribution counters. regretAccrued is cumulative (monotone) so
	// per-tenant regret stays reportable and mergeable even after ledger
	// entries are consumed by investment or garbage collected.
	// regretDropped is the cumulative regret discarded by cap evictions:
	// the live rows may forget a structure, but the books never silently
	// lose the regret it had accrued (live + dropped <= accrued always).
	spend         money.Amount
	profitTotal   money.Amount
	invested      money.Amount
	recovered     money.Amount
	regretAccrued money.Amount
	regretDropped money.Amount
	investCount   int64
	declinedCount int64
	queries       int64
	cacheAnswered int64
}

// newLedger opens a ledger with the given seed capital and regret cap.
func newLedger(tenant string, seed money.Amount, cap int) *Ledger {
	return &Ledger{tenant: tenant, credit: seed, cap: cap}
}

// Tenant returns the ledger's tenant name ("" for the communal pool).
func (l *Ledger) Tenant() string { return l.tenant }

// Credit returns the account balance.
func (l *Ledger) Credit() money.Amount { return l.credit }

// find returns the position of the structure's row, or -1.
func (l *Ledger) find(h structure.Handle) int {
	for i := range l.entries {
		if l.entries[i].h == h {
			return i
		}
	}
	return -1
}

// regretOf returns the live regret accumulated against a structure.
func (l *Ledger) regretOf(h structure.Handle) money.Amount {
	if i := l.find(h); i >= 0 {
		return l.entries[i].regret
	}
	return 0
}

// add accrues a regret share against a structure, touching its LRU slot.
// The share is applied before the cap is enforced, so a fresh entry
// competes with its real regret and timestamp: the old order (insert
// empty, gc, then fill) let a full ledger evict every newcomer at
// touched=0 — the map froze at its first cap entries and new structures
// could never accrue regret again.
func (l *Ledger) add(h structure.Handle, share money.Amount) {
	l.clock++
	l.regretAccrued = l.regretAccrued.Add(share)
	if i := l.find(h); i >= 0 {
		l.entries[i].regret = l.entries[i].regret.Add(share)
		l.entries[i].touched = l.clock
		return
	}
	l.entries = append(l.entries, regretEntry{h: h, regret: share, touched: l.clock})
	l.gc()
}

// gc enforces the cap on the regret rows (§IV-B garbage collection). The
// victim is the entry with the least regret, oldest-touched among ties —
// plain LRU would let an adversary cold-cycle one-off structure IDs
// through the map and evict a victim structure's accumulating regret
// before it ever reached the Eq. 3 bar, defeating investment forever.
// Least-regret eviction makes that attack self-defeating (the spray's
// own near-zero entries are the victims) and whatever is evicted is
// accounted in regretDropped rather than silently discarded.
func (l *Ledger) gc() {
	if len(l.entries) <= l.cap {
		return
	}
	v := 0
	for i, entry := range l.entries {
		ve := l.entries[v]
		if entry.regret < ve.regret || (entry.regret == ve.regret && entry.touched < ve.touched) {
			v = i
		}
	}
	l.regretDropped = l.regretDropped.Add(l.entries[v].regret)
	l.remove(v)
}

// remove deletes row i by moving the last row into its place.
func (l *Ledger) remove(i int) {
	last := len(l.entries) - 1
	l.entries[i] = l.entries[last]
	l.entries = l.entries[:last]
}

// TenantStats is the reportable snapshot of one tenant's ledger.
type TenantStats struct {
	// Tenant is the tenant name ("" for untagged queries).
	Tenant string
	// Traffic attribution.
	Queries       int64
	Declined      int64
	CacheAnswered int64
	// Money attribution. Credit is zero under the altruistic provider,
	// whose account is communal; Spend is the total the tenant's users
	// were charged; RegretAccrued is cumulative Eq. 1–2 regret attributed
	// to the tenant's queries.
	Credit        money.Amount
	Spend         money.Amount
	Profit        money.Amount
	RegretAccrued money.Amount
	// RegretLive is the sum of the live regret entries; RegretDropped is
	// the cumulative regret discarded by ledger-cap evictions. Both are
	// zero under the altruistic provider, whose live rows are communal, and
	// RegretLive + RegretDropped never exceeds the account's share of
	// RegretAccrued (the rest was consumed by investment).
	RegretLive    money.Amount
	RegretDropped money.Amount
	Invested      money.Amount
	Recovered     money.Amount
	// InvestCount is the number of structure builds charged to this
	// tenant (always zero under the altruistic provider).
	InvestCount int64
	// LedgerSize is the tenant's live regret-row count (zero under the
	// altruistic provider, whose live rows are communal).
	LedgerSize int
}

// liveRegret sums the live regret entries.
func (l *Ledger) liveRegret() money.Amount {
	var total money.Amount
	for _, e := range l.entries {
		total = total.Add(e.regret)
	}
	return total
}

// stats snapshots the ledger.
func (l *Ledger) stats() TenantStats {
	return TenantStats{
		Tenant:        l.tenant,
		Queries:       l.queries,
		Declined:      l.declinedCount,
		CacheAnswered: l.cacheAnswered,
		Credit:        l.credit,
		Spend:         l.spend,
		Profit:        l.profitTotal,
		RegretAccrued: l.regretAccrued,
		RegretLive:    l.liveRegret(),
		RegretDropped: l.regretDropped,
		Invested:      l.invested,
		Recovered:     l.recovered,
		InvestCount:   l.investCount,
		LedgerSize:    len(l.entries),
	}
}
