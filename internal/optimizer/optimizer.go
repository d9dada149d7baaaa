// Package optimizer enumerates and prices the candidate plan set PQ for an
// incoming query (§IV-B): the back-end plan, cache column-scan plans, index
// plans and parallel plans, each split into PQexist (all structures
// resident) or PQpos (needs investment). Prices follow the scheme's cost
// model: execution (Eq. 8–9), amortized build shares (Eq. 4–7) and
// maintenance arrears (footnote 3).
package optimizer

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Config parameterises an Optimizer.
type Config struct {
	// Model prices plans (the scheme's own schedule).
	Model *cost.Model
	// AmortN is the number of prospective queries a build cost is
	// amortized over (the `n` of Eq. 7). The paper leaves choosing n
	// open; see DESIGN.md.
	AmortN int64
	// AllowIndexes enables index plans (econ-cheap/econ-fast; off for
	// econ-col and bypass).
	AllowIndexes bool
	// AllowNodes enables multi-node parallel plans.
	AllowNodes bool
	// SkylineOnly keeps only time/cost-Pareto plans (footnote 2).
	SkylineOnly bool
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("optimizer: Model is required")
	}
	if c.AmortN <= 0 {
		return fmt.Errorf("optimizer: AmortN must be positive")
	}
	return nil
}

// Optimizer enumerates plans against a cache. It memoizes each
// template's structures and their handles in the cache it last
// enumerated against, so it is NOT safe for concurrent use; each scheme
// owns one optimizer, matching the single-threaded simulation loop.
type Optimizer struct {
	cfg Config

	// ca is the cache whose handle table the memos below are keyed by.
	// Handles mean nothing across caches, so a call against another
	// cache rebuilds them (see bind).
	ca   *cache.Cache
	tpls map[*workload.Template]*tplStructs
	cpuH []structure.Handle // cpuH[i] is CPU node ordinal i+2

	// scratch backs the slice Enumerate returns, reused across calls to
	// keep the per-query hot path free of slice growth.
	scratch []*plan.Plan

	// pool holds every *plan.Plan the optimizer has ever handed out;
	// Enumerate resets and reuses them from the front (used counts the
	// current call's consumption). Together with scratch this makes a
	// steady-state Enumerate allocation-free: PR 1 pooled the slice,
	// this extends the pattern to the Plan values themselves.
	pool []*plan.Plan
	used int

	// priceMemo memoizes BuildPrice by handle for as long as the cache's
	// residency epoch stands still. Build prices depend only on the model
	// (fixed) and on which columns are resident, so between builds and
	// evictions — i.e. for almost every query — pricing a missing
	// candidate is a slice read instead of a full Eq. 10/12/14 walk over
	// the catalog.
	priceMemo []memoPrice
}

// tplStructs is one template's structure handles: the columns every
// cache plan scans and, when indexes are allowed, the index candidates
// in template order.
type tplStructs struct {
	cols []structure.Handle
	idx  []structure.Handle
}

// memoPrice is one memoized BuildPrice result, valid while the cache's
// epoch equals stamp-1 (so the zero value is never valid).
type memoPrice struct {
	stamp int64
	price money.Amount
	out   cost.Outcome
}

// nextPlan returns a cleared plan from the pool, growing it on first
// use. Pooled plans keep their Structures and Missing slice capacity
// across reuse.
func (o *Optimizer) nextPlan() *plan.Plan {
	if o.used < len(o.pool) {
		p := o.pool[o.used]
		o.used++
		p.Reset()
		return p
	}
	p := &plan.Plan{}
	o.pool = append(o.pool, p)
	o.used++
	return p
}

// New builds an optimizer.
func New(cfg Config) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Optimizer{
		cfg:  cfg,
		tpls: make(map[*workload.Template]*tplStructs),
	}, nil
}

// bind points the handle memos at ca, rebuilding them when the cache
// changed since the last call.
func (o *Optimizer) bind(ca *cache.Cache) {
	if o.ca == ca {
		return
	}
	o.ca = ca
	clear(o.tpls)
	o.cpuH = o.cpuH[:0]
	for n := 2; n <= o.cfg.Model.Tunables().MaxNodes; n++ {
		o.cpuH = append(o.cpuH, ca.Intern(structure.CPUNode(n)))
	}
	o.priceMemo = o.priceMemo[:0]
}

// structsFor returns the memoized structure handles of a template,
// interning its structures in the bound cache on first sight.
func (o *Optimizer) structsFor(tpl *workload.Template) (*tplStructs, error) {
	if ts, ok := o.tpls[tpl]; ok {
		return ts, nil
	}
	cat := o.cfg.Model.Catalog()
	ts := &tplStructs{}
	for _, ref := range tpl.Columns {
		st, err := structure.ColumnStructure(cat, ref)
		if err != nil {
			return nil, err
		}
		ts.cols = append(ts.cols, o.ca.Intern(st))
	}
	if o.cfg.AllowIndexes {
		for _, def := range tpl.IndexCandidates {
			st, err := structure.IndexStructure(cat, def)
			if err != nil {
				return nil, err
			}
			ts.idx = append(ts.idx, o.ca.Intern(st))
		}
	}
	o.tpls[tpl] = ts
	return ts, nil
}

// Enumerate produces the priced plan set PQ for the query given the current
// cache state. The back-end plan is always present and always runnable, so
// PQexist is never empty.
//
// Aliasing contract: the returned slice AND the *Plan values it holds
// are owned by the optimizer — the slice is backed by a per-optimizer
// scratch buffer and the plans come from a pool that the next Enumerate
// call resets and reuses. Everything (including the Structures and
// Missing slices inside each plan) is only valid until the next
// Enumerate call; callers that outlive one query's handling must deep-
// copy what they keep. This holds for the SkylineOnly path too: Skyline
// returns a fresh slice but it aliases the same pooled plans.
func (o *Optimizer) Enumerate(q *workload.Query, ca *cache.Cache) ([]*plan.Plan, error) {
	if q == nil || ca == nil {
		return nil, fmt.Errorf("optimizer: query and cache are required")
	}
	o.bind(ca)
	o.used = 0
	plans := o.scratch[:0]

	backend, err := o.backendPlan(q)
	if err != nil {
		return nil, err
	}
	plans = append(plans, backend)

	maxNodes := 1
	if o.cfg.AllowNodes {
		maxNodes = o.cfg.Model.Tunables().MaxNodes
	}
	if !q.Template.Parallelizable {
		maxNodes = 1
	}

	ts, err := o.structsFor(q.Template)
	if err != nil {
		return nil, err
	}
	idx := pickIndex(ts, ca)
	for nodes := 1; nodes <= maxNodes; nodes++ {
		p, err := o.cachePlan(q, ca, ts, -1, nodes)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)

		if idx >= 0 {
			ip, err := o.cachePlan(q, ca, ts, idx, nodes)
			if err != nil {
				return nil, err
			}
			plans = append(plans, ip)
		}
	}

	o.scratch = plans
	if o.cfg.SkylineOnly {
		// Skyline copies into a fresh slice, so the scratch stays free
		// for the next call and the caller gets an independent result.
		return plan.Skyline(plans), nil
	}
	return plans, nil
}

// pickIndex chooses the index this query's plans would use: a resident
// matching candidate if one exists (cheapest to use), otherwise the first
// candidate in template order (the one regret should accrue to). It
// returns the candidate's position, or -1 when the template has none (or
// indexes are off).
func pickIndex(ts *tplStructs, ca *cache.Cache) int {
	if len(ts.idx) == 0 {
		return -1
	}
	for k, h := range ts.idx {
		if ca.Has(h) {
			return k
		}
	}
	return 0
}

// backendPlan prices Eq. 9 execution. It uses no cache structures.
func (o *Optimizer) backendPlan(q *workload.Query) (*plan.Plan, error) {
	out, err := o.cfg.Model.BackendExec(q)
	if err != nil {
		return nil, err
	}
	p := o.nextPlan()
	p.Query = q
	p.Location = plan.Backend
	p.Nodes = 1
	p.Outcome = out
	p.ExecPrice = cost.Price(o.cfg.Model.Schedule(), out.Usage)
	return p, nil
}

// cachePlan builds and prices one cache-resident plan variant, probing
// the template's idx-th index candidate (none when idx < 0).
func (o *Optimizer) cachePlan(q *workload.Query, ca *cache.Cache, ts *tplStructs, idx int, nodes int) (*plan.Plan, error) {
	m := o.cfg.Model
	useIndex := idx >= 0
	out, err := m.CacheExec(q, useIndex, nodes)
	if err != nil {
		return nil, err
	}
	p := o.nextPlan()
	p.Query = q
	p.Location = plan.Cache
	p.UsesIndex = useIndex
	p.Nodes = nodes
	p.Outcome = out
	p.ExecPrice = cost.Price(m.Schedule(), out.Usage)

	// Column structures: all template columns must be resident.
	for _, h := range ts.cols {
		o.addStructure(p, ca, h)
	}

	// The index structure.
	if useIndex {
		p.Index = ca.Structure(ts.idx[idx]).ID
		o.addStructure(p, ca, ts.idx[idx])
	}

	// Extra CPU nodes.
	for n := 2; n <= nodes; n++ {
		o.addStructure(p, ca, o.cpuH[n-2])
	}

	// Price the missing structures' amortized build shares.
	if err := o.priceMissing(p, ca); err != nil {
		return nil, err
	}
	return p, nil
}

// addStructure registers a structure on the plan, accumulating amortization
// and maintenance arrears for resident structures and recording missing
// ones.
func (o *Optimizer) addStructure(p *plan.Plan, ca *cache.Cache, h structure.Handle) {
	if slices.Contains(p.Structures, h) {
		return
	}
	p.Structures = append(p.Structures, h)
	if e, ok := ca.Get(h); ok {
		p.AmortPrice = p.AmortPrice.Add(cache.AmortShare(e, o.cfg.AmortN))
		p.MaintPrice = p.MaintPrice.Add(o.maintDue(ca, e))
		return
	}
	p.Missing = append(p.Missing, h)
}

// maintDue prices the maintenance arrears of a resident entry at the
// current cache clock.
func (o *Optimizer) maintDue(ca *cache.Cache, e *cache.Entry) money.Amount {
	return cache.MaintDue(e, func(e *cache.Entry) money.Amount {
		return o.cfg.Model.MaintCost(e.S.Kind == structure.KindCPUNode, e.S.Bytes, ca.Clock()-e.MaintPaidUntil)
	})
}

// priceMissing adds the amortized share of the build cost of each missing
// structure (Eq. 6–7 applied to prospective inventory: the first of the n
// amortizing queries would pay Build/n).
func (o *Optimizer) priceMissing(p *plan.Plan, ca *cache.Cache) error {
	for _, h := range p.Missing {
		price, _, err := o.BuildPrice(h, ca)
		if err != nil {
			return err
		}
		p.AmortPrice = p.AmortPrice.Add(price.DivInt(o.cfg.AmortN))
	}
	return nil
}

// BuildPrice returns the price and the build duration of constructing the
// structure behind handle h now, under the optimizer's model and the
// current cache state (Eq. 10, 12, 14).
func (o *Optimizer) BuildPrice(h structure.Handle, ca *cache.Cache) (money.Amount, cost.Outcome, error) {
	o.bind(ca)
	if int(h) >= len(o.priceMemo) {
		o.priceMemo = append(o.priceMemo, make([]memoPrice, int(h)+1-len(o.priceMemo))...)
	}
	memo := &o.priceMemo[h]
	if memo.stamp == ca.Epoch()+1 {
		return memo.price, memo.out, nil
	}
	st := ca.Structure(h)
	m := o.cfg.Model
	var out cost.Outcome
	var err error
	switch st.Kind {
	case structure.KindCPUNode:
		out = m.BuildCPUNode()
	case structure.KindColumn:
		out, err = m.BuildColumn(st.Column)
	case structure.KindIndex:
		out, err = m.BuildIndex(st.Index, func(ref catalog.ColumnRef) bool {
			for _, col := range st.IndexColumns {
				if col.Column == ref {
					return ca.Has(ca.Lookup(col.ID))
				}
			}
			return false
		})
	default:
		err = fmt.Errorf("optimizer: unknown structure kind %v", st.Kind)
	}
	if err != nil {
		return 0, cost.Outcome{}, err
	}
	price := cost.Price(m.Schedule(), out.Usage)
	*memo = memoPrice{stamp: ca.Epoch() + 1, price: price, out: out}
	return price, out, nil
}

// Config returns the optimizer configuration.
func (o *Optimizer) Config() Config { return o.cfg }
