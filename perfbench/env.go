package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/router"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/wire"
)

const shardsPerServer = 4

// traceRing is the per-shard decision-trace ring of the traced run: about
// one shard's share of a 10 s traced open-loop phase. Records that rotate
// out are missing from the join, which reports how many it matched.
const traceRing = 1 << 15

// env is one workload's serving stack, built from public constructors in
// this process. one submits a single query through the workload's front
// and waits for the answer.
type env struct {
	def     *workloadDef
	servers []*server.Server // the engines that decide (the backends on the cluster path)
	clocks  []*server.VirtualClock
	rt      *router.Router
	one     func(ctx context.Context, q *query) (server.Response, error)

	// clientBytes and backendBytes count bytes both ways on the load
	// generator's connections and on the router's backend connections.
	clientBytes  atomic.Int64
	backendBytes atomic.Int64

	closers []func() // run in reverse order by close
}

func newEnv(def *workloadDef, cat *catalog.Catalog, traced bool, workDir string) (*env, error) {
	e := &env{def: def}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	params := scheme.DefaultParams(cat)
	params.Provider = def.provider
	nServers := 1
	if def.front == frontCluster {
		nServers = 2
	}
	for i := 0; i < nServers; i++ {
		clk := server.NewVirtualClock()
		cfg := server.Config{
			Shards: shardsPerServer,
			Scheme: "econ-cheap",
			Params: params,
			Clock:  clk,
		}
		if traced {
			cfg.TraceRing = traceRing
		}
		if def.checkpointEvery > 0 {
			dir, err := os.MkdirTemp(workDir, "state-")
			if err != nil {
				return nil, err
			}
			e.closers = append(e.closers, func() { os.RemoveAll(dir) })
			cfg.SnapshotPath = filepath.Join(dir, "econ.snap")
		}
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		e.servers = append(e.servers, srv)
		e.clocks = append(e.clocks, clk)
	}

	var err error
	switch def.front {
	case frontHTTP:
		err = e.startHTTP()
	case frontCluster:
		err = e.startCluster()
	case frontEmbedded:
		srv := e.servers[0]
		e.one = func(ctx context.Context, q *query) (server.Response, error) {
			return srv.Submit(ctx, q.request())
		}
	}
	if err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

func listenLocal() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func (e *env) startHTTP() error {
	ln, err := listenLocal()
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: e.servers[0].Handler()}
	done := make(chan struct{})
	go func() { defer close(done); hs.Serve(ln) }()
	e.closers = append(e.closers, func() { hs.Close(); <-done })

	n := e.def.submitters
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countConn{Conn: c, n: &e.clientBytes}, nil
		},
	}
	e.closers = append(e.closers, tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	url := "http://" + ln.Addr().String() + "/v1/query"
	e.one = func(ctx context.Context, q *query) (server.Response, error) {
		sel := q.sel
		body, err := json.Marshal(server.QueryRequest{Tenant: q.tenant, Template: q.tpl.Name, Selectivity: &sel, Budget: q.budget})
		if err != nil {
			return server.Response{}, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return server.Response{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return server.Response{}, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return server.Response{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return server.Response{}, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		var out server.Response
		if err := json.Unmarshal(data, &out); err != nil {
			return server.Response{}, fmt.Errorf("decoding reply: %w", err)
		}
		return out, nil
	}
	return nil
}

// startCluster serves each backend on its own wire listener, boots a
// router over them (a fresh boot splits the shards between the
// backends), serves the router on a third listener and dials one
// MuxClient connection to it.
func (e *env) startCluster() error {
	var backends []router.BackendConfig
	for _, srv := range e.servers {
		ln, err := listenLocal()
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() { defer close(done); wire.Serve(&countListener{Listener: ln, n: &e.backendBytes}, srv) }()
		e.closers = append(e.closers, func() { ln.Close(); <-done })
		backends = append(backends, router.BackendConfig{Addr: ln.Addr().String()})
	}
	rt, err := router.New(router.Config{
		Backends:       backends,
		HealthInterval: -1,
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	e.rt = rt
	e.closers = append(e.closers, func() { rt.Close() })
	ln, err := listenLocal()
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { defer close(done); wire.ServeEngine(ln, rt) }()
	e.closers = append(e.closers, func() { ln.Close(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	mc, err := wire.NewMuxClient(&countConn{Conn: conn, n: &e.clientBytes})
	if err != nil {
		conn.Close()
		return err
	}
	e.closers = append(e.closers, func() { mc.Close() })
	e.one = func(ctx context.Context, q *query) (server.Response, error) {
		rs, err := mc.Submit(ctx, []wire.Query{{
			Tenant: q.tenant, Template: q.tpl.Name, Selectivity: q.sel, HasSelectivity: true, Budget: q.budget,
		}})
		if err != nil {
			return server.Response{}, err
		}
		if len(rs) != 1 {
			return server.Response{}, fmt.Errorf("wire: %d replies for one query", len(rs))
		}
		if rs[0].Err != "" {
			return server.Response{}, errors.New(rs[0].Err)
		}
		return rs[0].Resp, nil
	}
	return nil
}

// housekeep accrues rent on every engine through the current clock, so
// economy totals read at a phase boundary are exact functions of the
// stream.
func (e *env) housekeep() {
	for _, s := range e.servers {
		s.Housekeep()
	}
}

// econ is the engine-wide economy view: owned shards only, summed across
// servers.
type econ struct {
	queries, declined, cacheAnswered, investments, failures, errors int64
	operatingUSD, investedUSD, recoveredUSD                         float64
	respWeighted                                                    float64 // Σ mean × executed
	residentBytes                                                   int64
	ledgerEntries                                                   int64
}

func (e *env) econ() econ {
	var out econ
	for _, s := range e.servers {
		for _, sh := range s.Stats().PerShard {
			// A disowned shard's counters stop moving; its errors
			// still count (it refused someone).
			out.errors += sh.Errors
			if !sh.Owned {
				continue
			}
			out.queries += sh.Queries
			out.declined += sh.Declined
			out.cacheAnswered += sh.CacheAnswered
			out.investments += sh.Investments
			out.failures += sh.Failures
			out.operatingUSD += sh.OperatingCostUSD
			out.investedUSD += sh.InvestedUSD
			out.recoveredUSD += sh.RecoveredUSD
			out.respWeighted += sh.ResponseMeanSec * float64(sh.Queries-sh.Declined)
			out.residentBytes += sh.ResidentBytes
			out.ledgerEntries += int64(sh.LedgerSize)
		}
	}
	return out
}

func (c econ) respMean() float64 {
	if ex := c.queries - c.declined; ex > 0 {
		return c.respWeighted / float64(ex)
	}
	return 0
}

// reroutes reads the router's stale-ownership retry counter from its
// /metrics exposition.
func (e *env) reroutes() (int64, error) {
	if e.rt == nil {
		return 0, nil
	}
	rec := httptest.NewRecorder()
	e.rt.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "cloudrouter_reroutes_total "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("router /metrics has no cloudrouter_reroutes_total")
}

func (e *env) setTracing(every int64) {
	for _, s := range e.servers {
		if tr := s.Tracer(); tr != nil {
			tr.SetSampleEvery(every)
		}
	}
}

// countConn counts bytes read and written on a connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countListener hands out counting connections.
type countListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, n: l.n}, nil
}
