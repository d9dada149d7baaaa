package optimizer

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/structure"
	"repro/internal/workload"
)

// warmEnumerate returns an optimizer and a cache in the shape most churn
// queries meet: Q6's columns resident, its index candidates and extra
// CPU nodes missing, and every price memo already filled by one
// Enumerate.
func warmEnumerate(tb testing.TB) (*Optimizer, *cache.Cache, *workload.Query) {
	tb.Helper()
	o, ca, m := testSetup(tb, true, true)
	q := q6(5e-4)
	for _, ref := range q.Template.Columns {
		st, err := structure.ColumnStructure(m.Catalog(), ref)
		if err != nil {
			tb.Fatal(err)
		}
		if err := ca.StartBuild(st, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	ca.CompleteDue()
	if _, err := o.Enumerate(q, ca); err != nil {
		tb.Fatal(err)
	}
	return o, ca, q
}

// BenchmarkEnumerate prices PQ for one query on a warmed cache: the
// per-query optimizer cost of a steady decision.
func BenchmarkEnumerate(b *testing.B) {
	o, ca, q := warmEnumerate(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := o.Enumerate(q, ca); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEnumerateSteadyStateAllocs gates BenchmarkEnumerate's shape: once
// the plan pool, the template memo and the price memo are warm,
// Enumerate allocates nothing.
func TestEnumerateSteadyStateAllocs(t *testing.T) {
	o, ca, q := warmEnumerate(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.Enumerate(q, ca); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Enumerate allocates %.1f times per call, want 0", allocs)
	}
}
