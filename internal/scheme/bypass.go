package scheme

import (
	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Bypass is the bypass-yield baseline of [14] as emulated in §VII-A: the
// only priced resource is network bandwidth, the cache is capped at a fixed
// fraction of the database (the ideal 30 %), only table columns are cached
// and no indexes or extra CPU nodes are used.
//
// The caching rule is the byte-yield break-even of bypass caching: every
// back-end answer attributes its shipped bytes to the columns that, had
// they been cached, would have avoided the shipment. A column loads once
// its accumulated yield exceeds LoadFactor × its own transfer size — the
// point where caching it would have been cheaper than the traffic it
// caused. This is why net-only "answers many queries over the network
// before loading the data" (§VII-B).
type Bypass struct {
	model *cost.Model
	ca    *cache.Cache
	yield map[structure.ID]int64
	load  float64
}

// NewBypass builds the bypass baseline. The deciding schedule is forced to
// NetOnly regardless of Params.Schedule, matching the paper's emulation.
func NewBypass(p Params) (*Bypass, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	sched := pricing.NetOnly()
	// Keep the physical parameters of the supplied schedule so response
	// times stay comparable across schemes.
	if p.Schedule != nil {
		sched.NetworkThroughput = p.Schedule.NetworkThroughput
		sched.NetworkLatency = p.Schedule.NetworkLatency
		sched.FCPU = p.Schedule.FCPU
		sched.FIO = p.Schedule.FIO
		sched.FNet = p.Schedule.FNet
		sched.LCPU = p.Schedule.LCPU
		sched.BootTime = p.Schedule.BootTime
	}
	model, err := cost.NewModel(p.Catalog, sched, p.Tunables)
	if err != nil {
		return nil, err
	}
	capBytes := int64(float64(p.Catalog.TotalBytes()) * p.CacheFraction)
	return &Bypass{
		model: model,
		ca:    cache.New(capBytes),
		yield: make(map[structure.ID]int64),
		load:  p.LoadFactor,
	}, nil
}

// Name implements Scheme.
func (b *Bypass) Name() string { return "bypass" }

// YieldSnapshot exports the per-column yield accumulators (the scheme's
// only mutable state beyond the cache), for persistence.
func (b *Bypass) YieldSnapshot() map[structure.ID]int64 {
	out := make(map[structure.ID]int64, len(b.yield))
	for id, y := range b.yield {
		out[id] = y
	}
	return out
}

// RestoreYield replaces the yield accumulators with a previously
// exported set.
func (b *Bypass) RestoreYield(m map[structure.ID]int64) {
	b.yield = make(map[structure.ID]int64, len(m))
	for id, y := range m {
		b.yield[id] = y
	}
}

// Cache implements Scheme.
func (b *Bypass) Cache() *cache.Cache { return b.ca }

// HandleQuery implements Scheme.
func (b *Bypass) HandleQuery(q *workload.Query) (Result, error) {
	if err := step(b.ca, q); err != nil {
		return Result{}, err
	}

	// Identify missing columns.
	var missing []structure.ID
	for _, ref := range q.Template.Columns {
		id := structure.ColumnID(ref)
		if !b.ca.Has(b.ca.Lookup(id)) {
			missing = append(missing, id)
		}
	}

	if len(missing) == 0 {
		// Answer in the cache.
		out, err := b.model.CacheExec(q, false, 1)
		if err != nil {
			return Result{}, err
		}
		for _, ref := range q.Template.Columns {
			b.ca.Touch(b.ca.Lookup(structure.ColumnID(ref)))
		}
		return Result{
			ResponseTime: out.Time,
			Location:     plan.Cache,
			ExecUsage:    out.Usage,
		}, nil
	}

	// Answer in the back-end, then accumulate yield on the missing
	// columns and load the ones past break-even.
	out, err := b.model.BackendExec(q)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ResponseTime: out.Time,
		Location:     plan.Backend,
		ExecUsage:    out.Usage,
	}

	result, err := q.ResultBytes(b.model.Catalog())
	if err != nil {
		return Result{}, err
	}
	share := result / int64(len(missing))
	for _, ref := range q.Template.Columns {
		id := structure.ColumnID(ref)
		if h := b.ca.Lookup(id); b.ca.Has(h) || b.ca.Building(h) {
			continue
		}
		b.yield[id] += share
		colBytes, err := b.model.Catalog().ColumnBytes(ref)
		if err != nil {
			return Result{}, err
		}
		if float64(b.yield[id]) < b.load*float64(colBytes) {
			continue
		}
		// Break-even reached: load the column if the cap allows.
		if _, ok := b.ca.EnsureRoom(colBytes); !ok {
			continue
		}
		buildOut, err := b.model.BuildColumn(ref)
		if err != nil {
			return Result{}, err
		}
		st, err := structure.ColumnStructure(b.model.Catalog(), ref)
		if err != nil {
			return Result{}, err
		}
		price := cost.Price(b.model.Schedule(), buildOut.Usage)
		if err := b.ca.StartBuild(st, b.ca.Clock()+buildOut.Time, price); err != nil {
			return Result{}, err
		}
		res.BuildUsage.Add(buildOut.Usage)
		res.Investments++
		delete(b.yield, id)
	}
	return res, nil
}

var _ Scheme = (*Bypass)(nil)
