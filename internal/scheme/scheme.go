// Package scheme implements the four caching schemes of §VII-A behind one
// interface:
//
//   - bypass     — the bypass-yield baseline [14]: network is the only
//     priced resource, a fixed cache (30 % of the database) holds columns
//     chosen by byte-yield, no indexes, no extra CPU nodes.
//   - econ-col   — the economy restricted to column structures, cheapest
//     plan selection.
//   - econ-cheap — the full economy (columns + indexes + CPU nodes),
//     cheapest plan selection.
//   - econ-fast  — the full economy, fastest affordable plan selection.
//
// Meter keeps the operating-cost books of a scheme's cache; sim.Run and
// the server shard both drive one.
package scheme

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Result reports how a scheme handled one query.
type Result struct {
	// ResponseTime is the promised/delivered execution time. Zero when
	// the query was declined.
	ResponseTime time.Duration
	// Location says where the query ran.
	Location plan.Location
	// Case is the economy's §IV-C classification ("A"/"B"/"C"; empty for
	// schemes without an economy).
	Case string
	// Declined reports the user walked away (no execution).
	Declined bool
	// Charged is the user's payment (0 for the bypass baseline, which
	// has no payment model).
	Charged money.Amount
	// Profit is the cloud's profit on the query.
	Profit money.Amount
	// ExecUsage is the physical resource usage of the execution.
	ExecUsage cost.Usage
	// BuildUsage is the physical usage of any structure builds this
	// query triggered.
	BuildUsage cost.Usage
	// Investments counts builds started by this query.
	Investments int
	// InvestConsidered counts structures whose regret crossed the
	// investment bar this query, whether or not the build went through.
	InvestConsidered int
	// RegretAccrued is the regret this query distributed across missing
	// structures.
	RegretAccrued money.Amount
	// Failures counts maintenance-failure evictions swept before this
	// query.
	Failures int
}

// Scheme is a caching policy driving one cache.
type Scheme interface {
	// Name returns the reporting label, e.g. "econ-cheap".
	Name() string
	// HandleQuery advances the scheme's cache clock to q.Arrival,
	// completes due builds, plans, executes and settles the query.
	HandleQuery(q *workload.Query) (Result, error)
	// Cache exposes the underlying cache for accounting.
	Cache() *cache.Cache
}

// step advances a cache to the query's arrival and completes due builds.
// Shared by all schemes.
func step(ca *cache.Cache, q *workload.Query) error {
	if q == nil {
		return fmt.Errorf("scheme: nil query")
	}
	if q.Arrival >= ca.Clock() {
		ca.Advance(q.Arrival)
	}
	ca.CompleteDue()
	return nil
}
