package main

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/persist"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/workload"
)

// replayStats is what re-deciding the warm-up stream through bare
// schemes measured.
type replayStats struct {
	queries       int
	enumerateNs   int64
	handleNs      int64
	plans         int64
	considered    int64
	mismatches    int
	firstMismatch string
}

// replay re-decides the warm-up stream through one scheme.New instance
// per shard, in the order each shard saw it, timing
// (*scheme.Econ).HandleQuery and, on a second optimizer over the same
// cache, optimizer.Enumerate alone. The warm-up pass had one query in
// flight and stamped each with its arrival, so every replayed decision
// must equal the engine's.
func replay(cat *catalog.Catalog, def *workloadDef, qs []query, rs []server.Response, spans *spanLog) (replayStats, error) {
	var st replayStats
	params := scheme.DefaultParams(cat)
	params.Provider = def.provider
	model, err := cost.NewModel(cat, params.Schedule, params.Tunables)
	if err != nil {
		return st, err
	}
	econs := make([]*scheme.Econ, shardsPerServer)
	opts := make([]*optimizer.Optimizer, shardsPerServer)
	for i := range econs {
		sch, err := scheme.New("econ-cheap", params)
		if err != nil {
			return st, err
		}
		econs[i] = sch.(*scheme.Econ)
		if opts[i], err = optimizer.New(optimizer.Config{Model: model, AmortN: params.AmortN, AllowIndexes: true, AllowNodes: true}); err != nil {
			return st, err
		}
	}
	policy := workload.DefaultScaledPolicy()
	for i := range qs {
		q, want := &qs[i], &rs[i]
		wq := &workload.Query{ID: want.QueryID, Tenant: q.tenant, Template: q.tpl, Selectivity: q.sel, Arrival: q.arrival}
		if q.budget != nil {
			wq.Budget, _ = q.budget.Func()
		} else {
			scan, err := wq.ScanBytes(cat)
			if err != nil {
				return st, err
			}
			result, _ := wq.ResultBytes(cat)
			wq.Budget = policy.BudgetFor(wq, scan, result)
		}
		ec, opt := econs[q.shardIdx], opts[q.shardIdx]
		parent := spans.newID()
		t0 := time.Now()
		plans, err := opt.Enumerate(wq, ec.Cache())
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		res, err := ec.HandleQuery(wq)
		if err != nil {
			return st, err
		}
		t2 := time.Now()
		spans.add("optimizer.enumerate", parent, t0, t1, q.idx)
		spans.add("scheme.handle", parent, t1, t2, q.idx)
		spans.put(span{ID: parent, Name: "replay.query", Start: spans.rel(t0), End: spans.rel(t2), Query: q.idx})

		st.queries++
		st.enumerateNs += t1.Sub(t0).Nanoseconds()
		st.handleNs += t2.Sub(t1).Nanoseconds()
		st.plans += int64(len(plans))
		st.considered += int64(res.InvestConsidered)
		if res.Declined != want.Declined || res.Location.String() != want.Location ||
			res.Charged.Dollars() != want.ChargedUSD || res.ResponseTime.Seconds() != want.ResponseTimeSec {
			st.mismatches++
			if st.firstMismatch == "" {
				st.firstMismatch = fmt.Sprintf("query %d: replay (declined %v, %s, $%g, %gs) != engine (declined %v, %s, $%g, %gs)",
					q.idx, res.Declined, res.Location, res.Charged.Dollars(), res.ResponseTime.Seconds(),
					want.Declined, want.Location, want.ChargedUSD, want.ResponseTimeSec)
			}
		}
	}
	return st, nil
}

// persistStats times the durable-state path on every engine: capture
// (Server.Snapshot), persist.EncodeBytes and persist.Decode, summed over
// the engines, median of reps.
type persistStats struct {
	captureMs, encodeMs, decodeMs float64
	bytes                         int64
}

func measurePersist(e *env, spans *spanLog, reps int) (persistStats, error) {
	var capt, enc, dec []float64
	var size int64
	for r := 0; r < reps; r++ {
		var c, en, de time.Duration
		size = 0
		for _, srv := range e.servers {
			t0 := time.Now()
			snap := srv.Snapshot()
			t1 := time.Now()
			data := persist.EncodeBytes(snap)
			t2 := time.Now()
			if _, err := persist.Decode(data); err != nil {
				return persistStats{}, fmt.Errorf("decoding a fresh snapshot: %w", err)
			}
			t3 := time.Now()
			spans.add("persist.capture", 0, t0, t1, -1)
			spans.add("persist.encode", 0, t1, t2, -1)
			spans.add("persist.decode", 0, t2, t3, -1)
			c += t1.Sub(t0)
			en += t2.Sub(t1)
			de += t3.Sub(t2)
			size += int64(len(data))
		}
		capt = append(capt, ms(c))
		enc = append(enc, ms(en))
		dec = append(dec, ms(de))
	}
	return persistStats{captureMs: median(capt), encodeMs: median(enc), decodeMs: median(dec), bytes: size}, nil
}

// stageStats joins the engines' decision-trace records to the client
// spans of the traced open-loop phase on (shard, query id).
type stageStats struct {
	joined                         int
	decodeUs, encodeUs             float64 // means
	waitUs, decideUs, rttUs, hopUs []float64
}

func joinStages(e *env, spans []span) stageStats {
	type key struct {
		shard int
		qid   int64
	}
	recs := make(map[key]obs.Record)
	for _, srv := range e.servers {
		for _, r := range srv.TraceSnapshot("", "", 0) {
			recs[key{r.Shard, r.QueryID}] = r
		}
	}
	var st stageStats
	var dec, enc int64
	for _, s := range spans {
		st.rttUs = append(st.rttUs, us(s.nanos()))
		r, ok := recs[key{s.Shard, s.QID}]
		if !ok {
			continue
		}
		st.joined++
		dec += r.DecodeNanos
		enc += r.EncodeNanos
		st.waitUs = append(st.waitUs, us(r.WaitNanos))
		st.decideUs = append(st.decideUs, us(r.DecideNanos))
		st.hopUs = append(st.hopUs, us(s.nanos()-r.DecodeNanos-r.WaitNanos-r.DecideNanos-r.EncodeNanos))
	}
	if st.joined > 0 {
		st.decodeUs = us(dec) / float64(st.joined)
		st.encodeUs = us(enc) / float64(st.joined)
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(ns int64) float64        { return float64(ns) / 1e3 }
