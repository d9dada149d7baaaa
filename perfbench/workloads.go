package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/server"
	"repro/internal/workload"
)

// Front names how load reaches the engine.
type front string

const (
	frontHTTP     front = "http"     // POST /v1/query over keep-alive connections
	frontCluster  front = "cluster"  // wire v2 MuxClient → router → backends
	frontEmbedded front = "embedded" // the server package's library API
)

// workloadDef is one benchmark workload: a query stream, a front, and the
// load shape of its three phases. Every workload runs the paper catalog
// under econ-cheap with 4 shards per server (the daemon defaults).
type workloadDef struct {
	name  string
	front front
	why   string

	provider    economy.Provider
	tenants     int
	tenantTheta float64
	meanGap     time.Duration // Poisson arrival mean on the economy clock
	phaseLen    int           // queries per hot-set phase
	stride      int           // ranks the hot set rotates per phase
	jsonBudgets bool          // send the four Fig. 1 shapes in rotation

	warmup     int // queries in the one-in-flight warm-up pass
	window     int // saturation in-flight window per submitter
	submitters int // saturation/open-loop submitting goroutines (or connections)
	// openRate is the open-loop offered rate, queries per wall second,
	// fixed so every commit is offered the same load. On the reference
	// host (2-vCPU Xeon, go1.24) it is about 40% of saturation for HTTP,
	// which sends one query per connection in both phases, and about a
	// fifth to a quarter of saturation where saturation batches and the
	// open loop cannot.
	openRate        float64
	checkpointEvery int // queries between Server.Checkpoint calls; 0 = none
}

// noDrift is a phase length no run reaches: the hot set never rotates.
const noDrift = math.MaxInt32

var workloads = []*workloadDef{
	{
		name:  "http-steady",
		front: frontHTTP,
		why:   "the daemon's default front: JSON and net/http dominate while the economy stays on its hit path",

		provider:    economy.ProviderAltruistic,
		tenants:     64,
		meanGap:     time.Second,
		phaseLen:    noDrift,
		stride:      1,
		jsonBudgets: true,

		warmup:     36000,
		window:     1,
		submitters: 2,
		openRate:   6000,
	},
	{
		name:  "cluster-steady",
		front: frontCluster,
		why:   "the production cluster path: wire codec, router hop and coalescing, shard mailboxes; no HTTP, no persistence",

		provider: economy.ProviderAltruistic,
		tenants:  256,
		meanGap:  time.Second,
		phaseLen: noDrift,
		stride:   1,

		warmup:     36000,
		window:     32,
		submitters: 1,
		openRate:   8000,
	},
	{
		name:  "embedded-churn",
		front: frontEmbedded,
		why:   "writes beside reads: a drifting hot set drives builds, evictions, 1024 selfish ledgers and checkpoints",

		provider:    economy.ProviderSelfish,
		tenants:     1024,
		tenantTheta: 1.0,
		meanGap:     10 * time.Second,
		phaseLen:    2000,
		stride:      3,

		warmup:          80000,
		window:          8,
		submitters:      2,
		openRate:        12000,
		checkpointEvery: 5000,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query is one generated query as the benchmark submits it: exactly what
// a client would send, plus its arrival stamp on the economy clock.
type query struct {
	idx      int64
	tenant   string
	tpl      *workload.Template
	sel      float64
	arrival  time.Duration
	budget   *server.BudgetJSON // nil: the server's default policy
	shardIdx int                // where the engine must route it
}

func (q *query) request() server.Request {
	bf, _ := q.budget.Func() // generated budgets are always valid
	return server.Request{Tenant: q.tenant, Template: q.tpl.Name, Selectivity: q.sel, HasSelectivity: true, Budget: bf}
}

var budgetShapes = [...]string{"step", "linear", "convex", "concave"}

// stream hands out one workload's deterministic query sequence in order
// and, before handing a query out, advances every economy clock to its
// arrival stamp. Economy outcomes are then a function of the stream and
// the seed only, never of host speed.
type stream struct {
	mu       sync.Mutex
	gen      *workload.Generator
	def      *workloadDef
	clocks   []*server.VirtualClock
	next     int64
	genNanos int64
}

func newStream(def *workloadDef, cat *catalog.Catalog, seed int64) (*stream, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Catalog:         cat,
		Seed:            seed,
		Arrival:         workload.NewPoissonArrival(def.meanGap),
		Theta:           1.1,
		PhaseLength:     def.phaseLen,
		EvolutionStride: def.stride,
		Tenants:         def.tenants,
		TenantTheta:     def.tenantTheta,
	})
	if err != nil {
		return nil, err
	}
	return &stream{gen: gen, def: def}, nil
}

// take returns the next n queries, advancing the clocks to the last
// one's arrival (a batch shares one arrival instant on the server).
func (s *stream) take(n int) []query {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	out := make([]query, n)
	for i := range out {
		g := s.gen.Next()
		q := query{
			idx:     s.next,
			tenant:  g.Tenant,
			tpl:     g.Template,
			sel:     g.Selectivity,
			arrival: g.Arrival,
		}
		q.shardIdx = server.ShardIndexFor(q.tenant, q.tpl.Name, shardsPerServer)
		if s.def.jsonBudgets {
			step, ok := g.Budget.(budget.Step)
			if !ok {
				panic(fmt.Sprintf("generator budget %T is not a step", g.Budget))
			}
			q.budget = &server.BudgetJSON{
				Shape:    budgetShapes[s.next%int64(len(budgetShapes))],
				PriceUSD: step.Price.Dollars(),
				TmaxSec:  step.TMax.Seconds(),
				K:        2,
			}
		}
		s.next++
		out[i] = q
	}
	s.genNanos += time.Since(t0).Nanoseconds()
	last := out[n-1].arrival
	for _, c := range s.clocks {
		c.Advance(last - c.Now())
	}
	return out
}

func (s *stream) stats() (n int64, genNanos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next, s.genNanos
}
