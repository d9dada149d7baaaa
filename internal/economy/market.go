package economy

import (
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/structure"
)

// Market is the shared structure pool: the one cache all tenants answer
// from, plus the mechanics every account uses against it — residency,
// build pricing and construction, maintenance-failure eviction, the
// investment backoff history, and the physical-usage accumulator the
// simulator prices builds with. The Market holds no money of its own;
// Ledgers pay into it and are recorded as the owners of what they
// financed, so amortization and maintenance recovery can flow back to
// whoever built each resident.
type Market struct {
	cfg Config

	// owners records, by handle, which tenant financed each structure's
	// build ("" for the altruistic pool). Cleared on eviction: a rebuild
	// may be financed by someone else.
	owners []owner

	// failCount records, by handle, how many times a structure has
	// failed, for investment backoff. Survives eviction by design.
	failCount []int

	// buildUsage accumulates the physical resource usage of investments
	// since the last drain.
	buildUsage cost.Usage

	failureCount int64

	// events mirrors Economy.events (installed via Economy.SetEvents) for
	// the invest and evict events the market itself originates.
	events func(obs.Event)
}

// owner is one structure's financier; set distinguishes the pool's ""
// from no owner at all.
type owner struct {
	tenant string
	set    bool
}

// maxBackoffSteps caps how many times a failure history raises the
// Eq. 3 bar.
const maxBackoffSteps = 30

// emit reports one event if a sink is installed, stamping the economy
// clock.
func (m *Market) emit(ev obs.Event) {
	if m.events == nil {
		return
	}
	ev.ClockSec = m.cfg.Cache.Clock().Seconds()
	m.events(ev)
}

// newMarket wires the shared pool.
func newMarket(cfg Config) *Market {
	return &Market{cfg: cfg}
}

// Cache exposes the shared residency state.
func (m *Market) Cache() *cache.Cache { return m.cfg.Cache }

// Owner returns the tenant that financed a resident structure ("" for
// the communal pool or unknown structures).
func (m *Market) Owner(id structure.ID) string { return m.ownerOf(m.cfg.Cache.Lookup(id)) }

// ownerOf returns the financier of the structure behind h.
func (m *Market) ownerOf(h structure.Handle) string {
	if uint(h) < uint(len(m.owners)) {
		return m.owners[h].tenant
	}
	return ""
}

// setOwner records (set) or clears the financier of the structure
// behind h.
func (m *Market) setOwner(h structure.Handle, tenant string, set bool) {
	m.owners = growTo(m.owners, h)
	m.owners[h] = owner{tenant: tenant, set: set}
}

// fails returns the failure count of the structure behind h.
func (m *Market) fails(h structure.Handle) int {
	if int(h) < len(m.failCount) {
		return m.failCount[h]
	}
	return 0
}

// setFails records the failure count of the structure behind h.
func (m *Market) setFails(h structure.Handle, n int) {
	m.failCount = growTo(m.failCount, h)
	m.failCount[h] = n
}

// growTo extends a slice indexed by handle with zero values until h is
// a valid index. Such slices grow lazily because the cache interns new
// structures without telling their other users.
func growTo[T any](s []T, h structure.Handle) []T {
	if n := int(h) + 1 - len(s); n > 0 {
		s = append(s, make([]T, n)...)
	}
	return s
}

// drainBuildUsage returns the physical usage of all investments since the
// previous drain and resets the accumulator.
func (m *Market) drainBuildUsage() cost.Usage {
	u := m.buildUsage
	m.buildUsage = cost.Usage{}
	return u
}

// investmentBar returns the Eq. 3 threshold for the structure behind h:
// the base threshold raised exponentially with its failure history,
// damping build-evict-rebuild cycles. bars is the bar table of one
// threshold, starting as {threshold}: bars[k] is the bar after k
// failures, each step one MulFloat of the previous, and the table grows
// on demand, so an invest pass multiplies at most maxBackoffSteps times
// however many entries it tests.
func (m *Market) investmentBar(bars *[]money.Amount, h structure.Handle) money.Amount {
	k := 0
	if m.cfg.InvestBackoff > 1 {
		k = min(m.fails(h), maxBackoffSteps)
	}
	for len(*bars) <= k {
		*bars = append(*bars, (*bars)[len(*bars)-1].MulFloat(m.cfg.InvestBackoff))
	}
	return (*bars)[k]
}

// buildStructure starts construction of the structure behind h (and, for
// indexes, of its missing columns first, per Eq. 14), charging the payer
// ledger. It reports whether the investment was made; a conservative
// provider skips builds the payer's account cannot cover.
func (m *Market) buildStructure(h structure.Handle, payer *Ledger) bool {
	ca := m.cfg.Cache
	st := ca.Structure(h)
	price, out, err := m.cfg.Optimizer.BuildPrice(h, ca)
	if err != nil {
		return false
	}
	if m.cfg.Conservative && payer.credit < price {
		return false
	}

	now := ca.Clock()
	readyAt := now + out.Time
	if st.Kind == structure.KindIndex {
		// Build missing columns first; the index build waits for them.
		var colsReady = now
		for _, colSt := range st.IndexColumns {
			colH := ca.Intern(colSt)
			if ca.Has(colH) || ca.Building(colH) {
				continue
			}
			colPrice, colOut, err := m.cfg.Optimizer.BuildPrice(colH, ca)
			if err != nil {
				return false
			}
			if err := ca.StartBuild(colSt, now+colOut.Time, colPrice); err != nil {
				return false
			}
			payer.credit = payer.credit.Sub(colPrice)
			payer.invested = payer.invested.Add(colPrice)
			m.setOwner(colH, payer.tenant, true)
			m.buildUsage.Add(colOut.Usage)
			m.emit(obs.Event{
				Type:      obs.EventInvest,
				Tenant:    payer.tenant,
				Structure: string(colSt.ID),
				Amount:    colPrice,
				Reason:    "prerequisite column for an index build",
			})
			if now+colOut.Time > colsReady {
				colsReady = now + colOut.Time
			}
		}
		// The composite BuildPrice included the missing columns, but
		// those were just charged individually; re-price the sort-only
		// component by pretending all columns are cached.
		sortOnly, sortOut, err := m.indexSortOnly(st)
		if err != nil {
			return false
		}
		price, out = sortOnly, sortOut
		readyAt = colsReady + out.Time
	}

	if err := ca.StartBuild(st, readyAt, price); err != nil {
		return false
	}
	payer.credit = payer.credit.Sub(price)
	payer.invested = payer.invested.Add(price)
	payer.investCount++
	m.setOwner(h, payer.tenant, true)
	m.buildUsage.Add(out.Usage)
	m.emit(obs.Event{
		Type:      obs.EventInvest,
		Tenant:    payer.tenant,
		Structure: string(st.ID),
		Amount:    price,
		Reason:    "accumulated regret crossed the Eq. 3 investment bar",
	})
	return true
}

// indexSortOnly prices just the in-cache sort of an index build.
func (m *Market) indexSortOnly(st *structure.Structure) (money.Amount, cost.Outcome, error) {
	out, err := m.cfg.Model.BuildIndex(st.Index, func(catalog.ColumnRef) bool { return true })
	if err != nil {
		return 0, cost.Outcome{}, err
	}
	return cost.Price(m.cfg.Model.Schedule(), out.Usage), out, nil
}

// handleOf returns the handle of a structure ID, interning it on first
// sight. IDs arrive from snapshots, so the shape is not trusted: an ID
// the catalog cannot resolve is an error and is never interned.
func (m *Market) handleOf(id structure.ID) (structure.Handle, error) {
	ca := m.cfg.Cache
	if h := ca.Lookup(id); h != structure.NoHandle {
		return h, nil
	}
	st, err := ResolveID(m.cfg.Model.Catalog(), id)
	if err != nil {
		return structure.NoHandle, err
	}
	return ca.Intern(st), nil
}

// maintDueOf returns the maintenance arrears a resident entry has accrued
// at the current cache clock — the same quantity the optimizer priced into
// the plan's MaintPrice.
func (m *Market) maintDueOf(entry *cache.Entry) money.Amount {
	return cache.MaintDue(entry, func(en *cache.Entry) money.Amount {
		return m.cfg.Model.MaintCost(en.S.Kind == structure.KindCPUNode, en.S.Bytes, m.cfg.Cache.Clock()-en.MaintPaidUntil)
	})
}

// sweepFailures evicts structures whose maintenance rent no longer pays
// (footnote 3 "structure failure"). Two rules apply:
//
//   - Never-used structures fail when their accrued arrears exceed
//     MaintFailureFactor × build price: the investment clearly missed.
//   - Used structures fail when their rent *rate* exceeds
//     MaintFailureFactor × their lifetime value rate
//     (EarnedValue / time since build): at long inter-query intervals the
//     rent a structure accrues outweighs the value it produces, and a
//     rational provider evicts to save disk money (§VII-B, the 10 s and
//     60 s regimes). Rates — not single gaps — are compared so a busy
//     structure survives an occasional long idle stretch.
//
// The floors suppress evictions over negligible arrears so structures do
// not flap at short intervals, and give fresh builds time to see their
// first use (partial structure sets are unusable until complete).
func (m *Market) sweepFailures() []structure.ID {
	if m.cfg.MaintFailureFactor <= 0 {
		return nil
	}
	ca := m.cfg.Cache
	type victim struct {
		h      structure.Handle
		due    money.Amount
		reason string
	}
	var victims []victim
	ca.ForEach(func(entry *cache.Entry) {
		due := m.maintDueOf(entry)
		reason := ""
		if entry.Uses == 0 {
			if due > m.cfg.NeverUsedFloor &&
				due > entry.BuildPrice.MulFloat(m.cfg.MaintFailureFactor) {
				reason = "never used: arrears exceeded the build price factor"
			}
		} else if due > m.cfg.FailureFloor {
			// Grace window: rates need at least an hour of post-first-
			// use history to mean anything.
			window := ca.Clock() - entry.FirstUsed
			if window >= time.Hour {
				rentPerHour := m.cfg.Model.MaintCost(
					entry.S.Kind == structure.KindCPUNode, entry.S.Bytes, time.Hour).Dollars()
				valuePerHour := entry.EarnedValue.Dollars() / window.Hours()
				if rentPerHour > m.cfg.MaintFailureFactor*valuePerHour {
					reason = "rent rate outweighed lifetime value rate"
				}
			}
		}
		if reason != "" {
			victims = append(victims, victim{h: entry.H, due: due, reason: reason})
		}
	})
	if len(victims) == 0 {
		return nil
	}
	// ForEach visits residents in ID order, so victims are already
	// sorted by ID.
	ids := make([]structure.ID, 0, len(victims))
	for _, v := range victims {
		id := ca.Structure(v.h).ID
		m.emit(obs.Event{
			Type:      obs.EventEvict,
			Tenant:    m.ownerOf(v.h),
			Structure: string(id),
			Amount:    v.due,
			Reason:    v.reason,
		})
		ca.Evict(v.h)
		m.setOwner(v.h, "", false)
		m.setFails(v.h, m.fails(v.h)+1)
		m.failureCount++
		ids = append(ids, id)
	}
	return ids
}
