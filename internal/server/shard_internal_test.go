package server

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/scheme"
	"repro/internal/structure"
	"repro/internal/workload"
)

// declineScheme declines every query while (hostilely) reporting a
// non-zero ResponseTime — the worst case for the tail-rent window, since
// a declined query runs nothing and must not be billed as if it did.
type declineScheme struct {
	ca   *cache.Cache
	resp time.Duration
}

func (d *declineScheme) Name() string { return "decline-stub" }

func (d *declineScheme) HandleQuery(q *workload.Query) (scheme.Result, error) {
	if q.Arrival > d.ca.Clock() {
		d.ca.Advance(q.Arrival)
	}
	return scheme.Result{Declined: true, ResponseTime: d.resp}, nil
}

func (d *declineScheme) Cache() *cache.Cache { return d.ca }

// TestDeclinedQueryDoesNotExtendTailRent: a declined query performs no
// execution, so it must not widen the end-of-run window finalize charges
// storage and node rent through (scheme.Meter.Record; sim.Run has the
// twin of this test).
func TestDeclinedQueryDoesNotExtendTailRent(t *testing.T) {
	cat := catalog.TPCH(20)
	clock := NewVirtualClock()
	srv, err := New(Config{
		Shards: 1,
		Scheme: "econ-cheap",
		Params: scheme.DefaultParams(cat),
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Swap in the stub with a resident column, so any spurious widening
	// of the tail window shows up as storage rent.
	ca := cache.New(0)
	st, err := structure.ColumnStructure(cat, catalog.Col("lineitem", "l_shipdate"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.StartBuild(st, 0, money.FromDollars(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(ca.CompleteDue()); got != 1 {
		t.Fatalf("CompleteDue = %d, want 1", got)
	}
	sh := srv.shards[0]
	sh.mu.Lock()
	sh.sch = &declineScheme{ca: ca, resp: time.Hour}
	sh.eco = nil
	sh.mu.Unlock()

	ctx := context.Background()
	resp, err := srv.Submit(ctx, Request{Template: "Q6", Selectivity: 0.0096})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Declined {
		t.Fatal("stub did not decline")
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The clock never advanced, the only query declined: the drain must
	// settle zero rent, not an hour of it.
	sh.mu.Lock()
	gbSec, nodeSec, end := sh.meter.StorageGBSeconds, sh.meter.NodeSeconds, sh.meter.EndOfRun
	sh.mu.Unlock()
	if end != 0 {
		t.Errorf("declined query extended endOfRun to %v", end)
	}
	if gbSec != 0 || nodeSec != 0 {
		t.Errorf("declined query billed tail rent: %g GB·s, %g node·s", gbSec, nodeSec)
	}
}
