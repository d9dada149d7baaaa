package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// tally counts one run's outcomes across its measured phases and checks
// every reply against the query that produced it.
type tally struct {
	attempted, acked, failed atomic.Int64
	bad                      atomic.Int64
	firstBad                 atomic.Pointer[string]
	// phaseAcked restarts at every phase, so each phase checkpoints at
	// the same query positions whatever the previous phase completed.
	phaseAcked atomic.Int64
	ckpt       *checkpointer
}

func (t *tally) startPhase() { t.phaseAcked.Store(0) }

// record files one query's outcome; it returns false when the query
// failed.
func (t *tally) record(q *query, resp server.Response, err error) bool {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		msg := fmt.Sprintf("query %d failed: %v", q.idx, err)
		t.firstBad.CompareAndSwap(nil, &msg)
		return false
	}
	if resp.Template != q.tpl.Name || resp.Shard != q.shardIdx || resp.Selectivity != q.sel {
		t.bad.Add(1)
		msg := fmt.Sprintf("query %d: reply (%s, shard %d, sel %g) does not echo the query (%s, shard %d, sel %g)",
			q.idx, resp.Template, resp.Shard, resp.Selectivity, q.tpl.Name, q.shardIdx, q.sel)
		t.firstBad.CompareAndSwap(nil, &msg)
	}
	t.acked.Add(1)
	if n := t.phaseAcked.Add(1); t.ckpt != nil {
		t.ckpt.note(n)
	}
	return true
}

// checkpointer calls Server.Checkpoint every `every` acknowledged
// queries, on its own goroutine, beside the decisions.
type checkpointer struct {
	srv   *server.Server
	every int64
	kick  chan struct{}
	done  chan struct{}
	spans *spanLog
	mu    sync.Mutex
	durs  []float64 // milliseconds
	err   error
}

func newCheckpointer(srv *server.Server, every int, spans *spanLog) *checkpointer {
	c := &checkpointer{srv: srv, every: int64(every), kick: make(chan struct{}, 1), done: make(chan struct{}), spans: spans}
	go c.loop()
	return c
}

func (c *checkpointer) note(acked int64) {
	if acked%c.every == 0 {
		select {
		case c.kick <- struct{}{}:
		default: // one is already pending; cadence catches up
		}
	}
}

func (c *checkpointer) loop() {
	defer close(c.done)
	for range c.kick {
		t0 := time.Now()
		_, _, err := c.srv.Checkpoint()
		t1 := time.Now()
		c.spans.add("persist.checkpoint", 0, t0, t1, -1)
		c.mu.Lock()
		c.durs = append(c.durs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		if err != nil && c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	}
}

// stop waits for the last checkpoint and returns the durations taken.
func (c *checkpointer) stop() ([]float64, error) {
	close(c.kick)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durs, c.err
}

// warm runs the deterministic warm-up pass: one query in flight at a
// time through the workload's own front. With keep it returns the
// queries and replies in order.
func warm(ctx context.Context, e *env, s *stream, t *tally, n int, keep bool) ([]query, []server.Response, error) {
	t.startPhase()
	var qs []query
	var rs []server.Response
	for i := 0; i < n; i++ {
		q := s.take(1)[0]
		resp, err := e.one(ctx, &q)
		if !t.record(&q, resp, err) {
			return nil, nil, fmt.Errorf("warm-up query %d: %w", q.idx, err)
		}
		if keep {
			qs = append(qs, q)
			rs = append(rs, resp)
		}
	}
	return qs, rs, nil
}

// saturate runs the closed loop: a fixed in-flight window keeps the
// engine busy until dur has passed. It returns the queries completed
// and the wall time they took.
func saturate(ctx context.Context, e *env, s *stream, t *tally, dur time.Duration) (int64, time.Duration) {
	t.startPhase()
	before := t.attempted.Load()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	if e.def.front == frontEmbedded {
		srv := e.servers[0]
		for w := 0; w < e.def.submitters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reqs := make([]server.Request, e.def.window)
				for time.Now().Before(deadline) {
					qs := s.take(e.def.window)
					for i := range qs {
						reqs[i] = qs[i].request()
					}
					items, err := srv.SubmitBatch(ctx, reqs)
					for i := range qs {
						if err != nil {
							t.record(&qs[i], server.Response{}, err)
						} else {
							t.record(&qs[i], items[i].Resp, items[i].Err)
						}
					}
				}
			}()
		}
	} else {
		workers := e.def.submitters * e.def.window
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					q := s.take(1)[0]
					resp, err := e.one(ctx, &q)
					t.record(&q, resp, err)
				}
			}()
		}
	}
	wg.Wait()
	return t.attempted.Load() - before, time.Since(start)
}

// openResult is one open-loop phase: per-query latency from the due send
// time (math.MaxFloat64 for a failed query) and how late each query was sent.
type openResult struct {
	latMs, lateMs []float64
}

// openLoop offers queries at a fixed rate regardless of completions.
// Each query is timed from when it was due, so a stall that delays later
// sends counts against them.
func openLoop(ctx context.Context, e *env, s *stream, t *tally, dur time.Duration, rate float64, spans *spanLog) openResult {
	t.startPhase()
	n := int(rate * dur.Seconds())
	res := openResult{latMs: make([]float64, n), lateMs: make([]float64, n)}
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) * 1e9 / rate)) }
	finish := func(i int, q *query, sent time.Time, resp server.Response, err error) {
		end := time.Now()
		res.lateMs[i] = float64(sent.Sub(due(i)).Nanoseconds()) / 1e6
		if t.record(q, resp, err) {
			res.latMs[i] = float64(end.Sub(due(i)).Nanoseconds()) / 1e6
			spans.addReply("client.submit", sent, end, q.idx, resp)
		} else {
			res.latMs[i] = math.MaxFloat64 // beyond any latency limit
		}
	}
	var wg sync.WaitGroup
	if e.def.front == frontEmbedded {
		srv := e.servers[0]
		for i := 0; i < n; {
			waitUntil(due(i))
			now := time.Now()
			j := i + 1
			for j < n && !due(j).After(now) {
				j++
			}
			qs := s.take(j - i)
			reqs := make([]server.Request, len(qs))
			for k := range qs {
				reqs[k] = qs[k].request()
			}
			first := i
			wg.Add(1)
			err := srv.SubmitBatchAsync(ctx, reqs, func(items []server.BatchItem) {
				defer wg.Done()
				for k := range items {
					finish(first+k, &qs[k], now, items[k].Resp, items[k].Err)
				}
			})
			if err != nil {
				for k := range qs {
					finish(first+k, &qs[k], now, server.Response{}, err)
				}
				wg.Done()
			}
			i = j
		}
	} else {
		type job struct {
			i int
			q query
		}
		jobs := make(chan job)
		workers := e.def.submitters * e.def.window
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for jb := range jobs {
					sent := time.Now()
					resp, err := e.one(ctx, &jb.q)
					finish(jb.i, &jb.q, sent, resp, err)
				}
			}()
		}
		for i := 0; i < n; i++ {
			waitUntil(due(i))
			jobs <- job{i: i, q: s.take(1)[0]}
		}
		close(jobs)
	}
	wg.Wait()
	return res
}

// waitUntil returns at t. The runtime's timers can fire a millisecond
// late, which would dominate sub-millisecond latencies, and spinning
// would take a processor from the engine, so the last stretch sleeps in
// nanosleep(2), which wakes within the kernel's timer slack (~50µs).
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
