// Command perfbench is the repository benchmark: three workloads that
// drive the serving engine (built in-process from its public
// constructors) on a virtual economy clock, and report end-to-end and
// per-layer metrics. See README.md in this directory.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload http-steady --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare base.jsonl head.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/server"
)

// DefaultSeed is the seed runs use unless told otherwise; HeldOutSeed is
// kept out of tuning, for confirming a claimed change.
const (
	DefaultSeed = 1
	HeldOutSeed = 20261017
)

// setupReps is how many times an untraced run builds its stack and
// replays the warm-up pass; setup_s is their median, and the economy
// figures must agree exactly across them.
const setupReps = 3

// phaseSlices is how many slices each measured phase of an untraced run
// is cut into.
const phaseSlices = 10

// hardLimit ends a run that hangs: the benchmark must exit on its own.
const hardLimit = 170 * time.Second

type metricSpec struct{ name, unit string }

// endToEnd metrics come only from untraced runs (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"cpu_us_per_query", "us"},
	{"cost_usd_per_kq", "USD/kq"},
	{"resp_mean_s", "s"},
	{"heap_mb", "MB"},
}

// tailLatency figures are printed and recorded by untraced runs but not
// gated: on a small shared host the hypervisor takes a few percent of
// wall time from the vCPUs in multi-millisecond chunks, and those
// chunks, not the program, set these percentiles.
var tailLatency = []metricSpec{
	{"lat_p90_ms", "ms"},
	{"lat_p99_ms", "ms"},
}

// perLayer metrics come only from traced runs (--trace 1). A layer the
// workload does not cross (the router on an HTTP run) reads 0.
var perLayer = []metricSpec{
	{"http.rtt_us.p50", "us"},
	{"http.decode_us", "us"},
	{"http.encode_us", "us"},
	{"http.bytes_per_query", "bytes"},
	{"wire.rtt_us.p50", "us"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.bytes_per_query", "bytes"},
	{"router.hop_us.p50", "us"},
	{"router.hop_us.p99", "us"},
	{"router.backend_bytes_per_query", "bytes"},
	{"router.reroutes", "count"},
	{"server.mailbox_wait_us.p50", "us"},
	{"server.mailbox_wait_us.p99", "us"},
	{"server.decide_us.p50", "us"},
	{"server.decide_us.p99", "us"},
	{"optimizer.enumerate_us", "us"},
	{"optimizer.plans_per_query", "count"},
	{"economy.handle_us", "us"},
	{"economy.invest_considered_per_query", "count"},
	{"economy.invest_per_kq", "count/kq"},
	{"economy.evict_per_kq", "count/kq"},
	{"economy.ledger_entries", "count"},
	{"cache.hit_frac", "frac"},
	{"cache.resident_gb", "GB"},
	{"cache.built_used_frac", "frac"},
	{"persist.capture_ms", "ms"},
	{"persist.checkpoint_ms.p50", "ms"},
	{"persist.checkpoint_ms.max", "ms"},
	{"persist.snapshot_bytes", "bytes"},
	{"persist.encode_ms", "ms"},
	{"persist.decode_ms", "ms"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_per_kq", "count/kq"},
	{"obs.trace_overhead_frac", "frac"},
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.gen_us_per_query", "us"},
	{"error_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads: the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is the full account of one run; compare reads these.
type record struct {
	Host     hostInfo       `json:"host"`
	Build    buildInfo      `json:"build"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    int            `json:"trace"`
	Samples  map[string]int `json:"samples"`
	// Info holds figures printed beside the metrics but not gated.
	Info map[string]metricValue `json:"info,omitempty"`
	// SpanSelfMs is each span name's summed self time in a traced run.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
	Checks     []check            `json:"checks"`
	Result     result             `json:"result"`
	values     map[string]float64
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workDir  string
	// warmup overrides the workload's warm-up length (smoke tests).
	warmup int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var recordPath string
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: http-steady, cluster-steady or embedded-churn")
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed (held-out seed for confirming claims: 20261017)")
	fs.IntVar(&o.seconds, "seconds", 20, "measured wall seconds (saturation + open loop)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for state files and span dumps")
	fs.StringVar(&recordPath, "record", "", "append the run's full record (host fingerprint included) to this JSON-lines file")
	fs.Parse(os.Args[1:])

	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", hardLimit)
		os.Exit(3)
	})
	rec, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if recordPath != "" {
		if err := appendRecord(recordPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	printRecord(os.Stdout, rec)
	if !rec.Result.Correct {
		os.Exit(2)
	}
}

func run(ctx context.Context, o options) (*record, error) {
	def, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be >= 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{
		Host: fingerprint(), Build: build(),
		Workload: def.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Samples: map[string]int{}, values: map[string]float64{},
	}
	cat := catalog.Paper()
	if o.trace == 0 {
		err = runUntraced(ctx, o, def, cat, rec)
	} else {
		err = runTraced(ctx, o, def, cat, rec)
	}
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if o.trace == 1 {
		specs = perLayer
	}
	rec.Result.Metrics = make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := rec.values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		rec.Result.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	rec.Result.Correct = true
	for _, c := range rec.Checks {
		rec.Result.Correct = rec.Result.Correct && c.OK
	}
	return rec, nil
}

// setup builds the workload's stack and runs the warm-up pass on it.
type setup struct {
	env   *env
	strm  *stream
	tally *tally
	qs    []query
	resps []server.Response
	took  time.Duration
	econ  econ
}

func newSetup(ctx context.Context, o options, def *workloadDef, cat *catalog.Catalog, traced bool, spans *spanLog) (*setup, error) {
	t0 := time.Now()
	e, err := newEnv(def, cat, traced, o.workDir)
	if err != nil {
		return nil, err
	}
	s, err := newStream(def, cat, o.seed)
	if err != nil {
		e.close()
		return nil, err
	}
	s.clocks = e.clocks
	t := &tally{}
	if def.checkpointEvery > 0 {
		t.ckpt = newCheckpointer(e.servers[0], def.checkpointEvery, spans)
	}
	n := def.warmup
	if o.warmup > 0 {
		n = o.warmup
	}
	qs, rs, err := warm(ctx, e, s, t, n, traced)
	took := time.Since(t0)
	if err != nil {
		st := &setup{env: e, tally: t}
		st.close()
		return nil, err
	}
	e.housekeep()
	return &setup{env: e, strm: s, tally: t, qs: qs, resps: rs, took: took, econ: e.econ()}, nil
}

// stopCheckpoints waits for the last checkpoint; it returns the
// checkpoint durations (ms).
func (st *setup) stopCheckpoints() ([]float64, error) {
	if st.tally.ckpt == nil {
		return nil, nil
	}
	c := st.tally.ckpt
	st.tally.ckpt = nil
	return c.stop()
}

func (st *setup) close() {
	st.stopCheckpoints()
	st.env.close()
}

func (st *setup) costPerKQ() float64 { return st.econ.operatingUSD / float64(st.econ.queries) * 1000 }

func runUntraced(ctx context.Context, o options, def *workloadDef, cat *catalog.Catalog, rec *record) error {
	var setupS []float64
	var st *setup
	var cost0, resp0 float64
	same := true
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = newSetup(ctx, o, def, cat, false, nil); err != nil {
			return err
		}
		setupS = append(setupS, st.took.Seconds())
		if i == 0 {
			cost0, resp0 = st.costPerKQ(), st.econ.respMean()
		} else if st.costPerKQ() != cost0 || st.econ.respMean() != resp0 {
			same = false
		}
	}
	defer st.close()
	rec.Checks = append(rec.Checks, check{
		Name: "warm-up economy identical across set-ups", OK: same,
		Detail: fmt.Sprintf("%d set-ups; cost %.10g USD/kq, resp %.10g s", setupReps, cost0, resp0),
	})
	rec.values["setup_s"] = median(setupS)
	rec.values["cost_usd_per_kq"] = cost0
	rec.values["resp_mean_s"] = resp0

	att0, fail0 := st.tally.attempted.Load(), st.tally.failed.Load()
	// The two measured phases alternate in short slices and each metric
	// is the median slice, so a burst of contention on a shared host
	// moves a few slices, not the figure.
	slice := time.Duration(o.seconds) * time.Second / (2 * phaseSlices)
	var qps, cpuPerQ, p50, p90, p99 []float64
	var nSat int64
	nLat := 0
	// One unrecorded round first: the switch from the one-in-flight
	// warm-up to full load takes the GC pacer and the schedulers a few
	// cycles to settle.
	saturate(ctx, st.env, st.strm, st.tally, slice)
	openLoop(ctx, st.env, st.strm, st.tally, slice, def.openRate, nil)
	for i := 0; i < phaseSlices; i++ {
		cpu0 := cpuTime()
		n, took := saturate(ctx, st.env, st.strm, st.tally, slice)
		cpu := cpuTime() - cpu0
		qps = append(qps, float64(n)/took.Seconds())
		cpuPerQ = append(cpuPerQ, us(cpu.Nanoseconds())/float64(n))
		nSat += n

		open := openLoop(ctx, st.env, st.strm, st.tally, slice, def.openRate, nil)
		p50 = append(p50, percentile(open.latMs, 50))
		p90 = append(p90, percentile(open.latMs, 90))
		p99 = append(p99, percentile(open.latMs, 99))
		nLat += len(open.latMs)
	}
	rec.values["qps"] = median(qps)
	rec.values["cpu_us_per_query"] = median(cpuPerQ)
	rec.values["lat_p50_ms"] = median(p50)
	rec.Info = map[string]metricValue{
		"lat_p90_ms": {Value: median(p90), Unit: "ms"},
		"lat_p99_ms": {Value: median(p99), Unit: "ms"},
	}
	rec.Samples["saturation_queries"] = int(nSat)
	rec.Samples["open_loop_queries"] = nLat
	rec.Samples["slices_per_phase"] = phaseSlices

	if _, err := st.stopCheckpoints(); err != nil {
		rec.Checks = append(rec.Checks, check{Name: "checkpoints succeed", OK: false, Detail: err.Error()})
	}
	rec.Checks = append(rec.Checks, engineChecks(st)...)
	rec.Result.Attempted = st.tally.attempted.Load() - att0
	rec.Result.Failed = st.tally.failed.Load() - fail0

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rec.values["heap_mb"] = float64(ms.HeapAlloc) / 1e6
	return nil
}

func runTraced(ctx context.Context, o options, def *workloadDef, cat *catalog.Catalog, rec *record) error {
	spans := newSpanLog()
	st, err := newSetup(ctx, o, def, cat, true, spans)
	if err != nil {
		return err
	}
	defer st.close()
	w := st.econ
	kq := float64(w.queries) / 1000
	rec.values["economy.invest_per_kq"] = float64(w.investments) / kq
	rec.values["economy.evict_per_kq"] = float64(w.failures) / kq
	rec.values["cache.hit_frac"] = float64(w.cacheAnswered) / float64(w.queries-w.declined)
	rec.values["cache.resident_gb"] = float64(w.residentBytes) / 1e9
	rec.values["cache.built_used_frac"] = builtUsedFrac(st.env)

	rp, err := replay(cat, def, st.qs, st.resps, spans)
	if err != nil {
		return err
	}
	rec.Checks = append(rec.Checks, check{
		Name: "bare-scheme replay reproduces the warm-up decisions", OK: rp.mismatches == 0,
		Detail: strings.TrimSuffix(fmt.Sprintf("%d of %d differ; %s", rp.mismatches, rp.queries, rp.firstMismatch), "; "),
	})
	enumUs := us(rp.enumerateNs) / float64(rp.queries)
	rec.values["optimizer.enumerate_us"] = enumUs
	rec.values["optimizer.plans_per_query"] = float64(rp.plans) / float64(rp.queries)
	rec.values["economy.handle_us"] = us(rp.handleNs)/float64(rp.queries) - enumUs
	rec.values["economy.invest_considered_per_query"] = float64(rp.considered) / float64(rp.queries)

	// Saturation in four interleaved slices, tracing off/on/off/on: the
	// traced slices' qps deficit is the tracer's overhead.
	att0, fail0 := st.tally.attempted.Load(), st.tally.failed.Load()
	slice := time.Duration(o.seconds) * time.Second / 8
	var qpsOff, qpsOn []float64
	var offQueries int64
	var mallocs, gcs uint64
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		every := int64(0)
		if traced {
			every = 1
		}
		st.env.setTracing(every)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n, took := saturate(ctx, st.env, st.strm, st.tally, slice)
		runtime.ReadMemStats(&m1)
		if traced {
			qpsOn = append(qpsOn, float64(n)/took.Seconds())
		} else {
			qpsOff = append(qpsOff, float64(n)/took.Seconds())
			offQueries += n
			mallocs += m1.Mallocs - m0.Mallocs
			gcs += uint64(m1.NumGC - m0.NumGC)
		}
	}
	rec.values["obs.trace_overhead_frac"] = 1 - mean(qpsOn)/mean(qpsOff)
	rec.values["runtime.allocs_per_query"] = float64(mallocs) / float64(offQueries)
	rec.values["runtime.gc_per_kq"] = float64(gcs) / (float64(offQueries) / 1000)

	// Traced open loop: every query sampled, every submit spanned.
	st.env.setTracing(1)
	cb0, bb0 := st.env.clientBytes.Load(), st.env.backendBytes.Load()
	open := openLoop(ctx, st.env, st.strm, st.tally, time.Duration(o.seconds)*time.Second/2, def.openRate, spans)
	st.env.setTracing(0)
	nOpen := float64(len(open.latMs))
	clientBPQ := float64(st.env.clientBytes.Load()-cb0) / nOpen
	backendBPQ := float64(st.env.backendBytes.Load()-bb0) / nOpen
	rec.values["loadgen.late_ms.p99"] = percentile(open.lateMs, 99)
	gen, genNs := st.strm.stats()
	rec.values["loadgen.gen_us_per_query"] = us(genNs) / float64(gen)

	stages := joinStages(st.env, spans.byName("client.submit"))
	rec.Samples["joined_trace_records"] = stages.joined
	rec.Samples["client_spans"] = len(stages.rttUs)
	rec.values["server.mailbox_wait_us.p50"] = percentile(stages.waitUs, 50)
	rec.values["server.mailbox_wait_us.p99"] = percentile(stages.waitUs, 99)
	rec.values["server.decide_us.p50"] = percentile(stages.decideUs, 50)
	rec.values["server.decide_us.p99"] = percentile(stages.decideUs, 99)
	for _, p := range []string{"http", "wire"} {
		for _, m := range []string{".rtt_us.p50", ".decode_us", ".encode_us", ".bytes_per_query"} {
			rec.values[p+m] = 0
		}
	}
	for _, m := range []string{"router.hop_us.p50", "router.hop_us.p99", "router.backend_bytes_per_query", "router.reroutes"} {
		rec.values[m] = 0
	}
	switch def.front {
	case frontHTTP:
		rec.values["http.rtt_us.p50"] = percentile(stages.rttUs, 50)
		rec.values["http.decode_us"] = stages.decodeUs
		rec.values["http.encode_us"] = stages.encodeUs
		rec.values["http.bytes_per_query"] = clientBPQ
	case frontCluster:
		rec.values["wire.rtt_us.p50"] = percentile(stages.rttUs, 50)
		rec.values["wire.decode_us"] = stages.decodeUs
		rec.values["wire.encode_us"] = stages.encodeUs
		rec.values["wire.bytes_per_query"] = clientBPQ
		rec.values["router.hop_us.p50"] = percentile(stages.hopUs, 50)
		rec.values["router.hop_us.p99"] = percentile(stages.hopUs, 99)
		rec.values["router.backend_bytes_per_query"] = backendBPQ
		n, err := st.env.reroutes()
		if err != nil {
			return err
		}
		rec.values["router.reroutes"] = float64(n)
	}

	ps, err := measurePersist(st.env, spans, 5)
	if err != nil {
		return err
	}
	rec.values["persist.capture_ms"] = ps.captureMs
	rec.values["persist.encode_ms"] = ps.encodeMs
	rec.values["persist.decode_ms"] = ps.decodeMs
	rec.values["persist.snapshot_bytes"] = float64(ps.bytes)
	durs, err := st.stopCheckpoints()
	if err != nil {
		rec.Checks = append(rec.Checks, check{Name: "checkpoints succeed", OK: false, Detail: err.Error()})
	}
	rec.values["persist.checkpoint_ms.p50"] = percentile(durs, 50)
	rec.values["persist.checkpoint_ms.max"] = percentile(durs, 100)
	rec.Samples["checkpoints"] = len(durs)

	rec.Checks = append(rec.Checks, engineChecks(st)...)
	end := st.env.econ()
	rec.values["economy.ledger_entries"] = float64(end.ledgerEntries)
	rec.Result.Attempted = st.tally.attempted.Load() - att0
	rec.Result.Failed = st.tally.failed.Load() - fail0
	rec.values["error_frac"] = float64(rec.Result.Failed) / float64(rec.Result.Attempted)

	rec.SpanSelfMs = map[string]float64{}
	for name, ns := range spans.selfNanos() {
		rec.SpanSelfMs[name] = float64(ns) / 1e6
	}
	rec.Samples["spans_dropped"] = int(spans.dropped)
	return spans.write(filepath.Join(o.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", def.name, o.seed)))
}

// engineChecks are the output checks every run ends with.
func engineChecks(st *setup) []check {
	e, t := st.env, st.tally
	c := e.econ()
	acked, failed := t.acked.Load(), t.failed.Load()
	out := []check{
		{Name: "acked replies equal the engines' decided queries", OK: acked == c.queries,
			Detail: fmt.Sprintf("acked %d, engines %d", acked, c.queries)},
		{Name: "every engine error reached the client as a failure", OK: c.errors <= failed && t.attempted.Load() == acked+failed,
			Detail: fmt.Sprintf("engine errors %d, failed replies %d, attempted %d", c.errors, failed, t.attempted.Load())},
		{Name: "every reply echoes its query", OK: t.bad.Load() == 0, Detail: fmt.Sprintf("%d bad", t.bad.Load())},
	}
	if p := t.firstBad.Load(); p != nil {
		out[2].Detail += ": " + *p
	}
	var tot obs.Totals
	for _, s := range e.servers {
		tot.Add(s.EventTotals())
	}
	const usd = 1e-6
	// A prerequisite column built for an index journals its own invest
	// event but is part of the index's one investment, so events may
	// outnumber Stats' investments; the dollars must agree.
	out = append(out, check{
		Name: "journal invest/evict/recovery totals reconcile with Stats",
		OK: tot.Invests >= c.investments && tot.Evicts == c.failures &&
			math.Abs(tot.Invested.Dollars()-c.investedUSD) < usd && math.Abs(tot.Recovered.Dollars()-c.recoveredUSD) < usd,
		Detail: fmt.Sprintf("journal/Stats: invests %d/%d, evicts %d/%d, invested $%.6f/$%.6f, recovered $%.6f/$%.6f",
			tot.Invests, c.investments, tot.Evicts, c.failures, tot.Invested.Dollars(), c.investedUSD, tot.Recovered.Dollars(), c.recoveredUSD),
	})
	if e.def.front == frontCluster {
		n, err := e.reroutes()
		ok := err == nil && n == 0
		detail := fmt.Sprintf("%d reroutes", n)
		if err != nil {
			detail = err.Error()
		}
		out = append(out, check{Name: "router reroutes nothing", OK: ok, Detail: detail})
	}
	return out
}

// builtUsedFrac is the share of resident structures that answered at
// least one query: useful investments over attempted ones.
func builtUsedFrac(e *env) float64 {
	var built, used int
	for _, s := range e.servers {
		for _, si := range s.Structures() {
			built++
			if si.Uses > 0 {
				used++
			}
		}
	}
	if built == 0 {
		return 0
	}
	return float64(used) / float64(built)
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host %s  nproc %d  GOMAXPROCS %d  %s  commit %s dirty %v\n",
		rec.Host.CPU, rec.Host.NProc, rec.Host.GoMaxProcs, rec.Host.GoVersion, rec.Build.Commit, rec.Build.Dirty)
	specs := endToEnd
	if rec.Trace == 1 {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.name, rec.Result.Metrics[m.name].Value, m.unit)
	}
	for _, m := range tailLatency {
		if v, ok := rec.Info[m.name]; ok {
			fmt.Fprintf(w, "  %-36s %16.6g %s (not gated)\n", m.name, v.Value, v.Unit)
		}
	}
	for _, k := range sortedKeys(rec.Samples) {
		fmt.Fprintf(w, "  samples %-28s %d\n", k, rec.Samples[k])
	}
	for _, k := range sortedKeys(rec.SpanSelfMs) {
		fmt.Fprintf(w, "  span self time %-21s %12.3f ms\n", k, rec.SpanSelfMs[k])
	}
	for _, c := range rec.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintf(w, "%s\n", line)
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentile is the nearest-rank p-th percentile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
