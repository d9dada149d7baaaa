package scheme

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/pricing"
)

// Meter keeps the cloud's books for one cache: the execution and build
// usage its queries consumed, the storage and node rent integrated over
// time (Eq. 8–9), and the traffic and payment counters. sim.Run and the
// server shard both drive one, and checkpoints persist it whole, so a
// change to how the cloud is billed lands here and nowhere else.
type Meter struct {
	// LastAccrual is the point up to which storage and node rent have
	// been integrated.
	LastAccrual time.Duration
	// EndOfRun is the completion time of the latest-finishing
	// execution; Close integrates tail rent through it.
	EndOfRun time.Duration

	// StorageGBSeconds is resident GiB × seconds; NodeSeconds is extra
	// CPU-node uptime in seconds.
	StorageGBSeconds float64
	NodeSeconds      float64

	// Traffic counters: queries decided, declined, answered in the
	// cache, structure builds started and maintenance-failure evictions.
	Queries       int64
	Declined      int64
	CacheAnswered int64
	Investments   int64
	Failures      int64

	// Revenue and Profit are the user-payment side.
	Revenue money.Amount
	Profit  money.Amount

	// ExecUsage and BuildUsage are the physical resources consumed by
	// query execution and by structure construction.
	ExecUsage  cost.Usage
	BuildUsage cost.Usage
}

// Accrue integrates storage and node rent over [LastAccrual, now) using
// the residency state in force over that window: call it before whatever
// happens at now mutates the cache.
func (m *Meter) Accrue(now time.Duration, ca *cache.Cache) {
	if now <= m.LastAccrual {
		return
	}
	dt := (now - m.LastAccrual).Seconds()
	m.StorageGBSeconds += float64(ca.ResidentBytes()) / (1 << 30) * dt
	m.NodeSeconds += float64(ca.NodeCount()) * dt
	m.LastAccrual = now
}

// Record books one decided query that arrived at arrival. Only
// executions widen the tail-rent window: a declined query runs nothing,
// so whatever ResponseTime it reports must not push EndOfRun past its
// arrival.
func (m *Meter) Record(arrival time.Duration, r Result) {
	m.Queries++
	m.ExecUsage.Add(r.ExecUsage)
	m.BuildUsage.Add(r.BuildUsage)
	m.Revenue = m.Revenue.Add(r.Charged)
	m.Profit = m.Profit.Add(r.Profit)
	m.Investments += int64(r.Investments)
	m.Failures += int64(r.Failures)
	if r.Declined {
		m.Declined++
		return
	}
	if r.Location == plan.Cache {
		m.CacheAnswered++
	}
	if done := arrival + r.ResponseTime; done > m.EndOfRun {
		m.EndOfRun = done
	}
}

// Close settles the tail: rent keeps accruing while the final queries
// execute, so it integrates through max(now, EndOfRun) and returns that
// end.
func (m *Meter) Close(now time.Duration, ca *cache.Cache) time.Duration {
	end := max(now, m.EndOfRun)
	m.Accrue(end, ca)
	return end
}

// Costs prices the books with acct: query execution, structure builds,
// disk rent and extra-node uptime rent.
func (m *Meter) Costs(acct *pricing.Schedule) (exec, build, storage, node money.Amount) {
	return cost.Price(acct, m.ExecUsage), cost.Price(acct, m.BuildUsage),
		acct.StorageRent(m.StorageGBSeconds), acct.NodeRent(m.NodeSeconds)
}
