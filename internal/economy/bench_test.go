package economy

import (
	"math/rand"
	"testing"

	"repro/internal/money"
)

// warmInvest builds the ledger shape selfish churn tenants carry: about
// 30 rows with mixed failure histories, most below their bar and a few
// crossing it for structures the account cannot afford, so every pass
// re-tests them and builds nothing.
func warmInvest(tb testing.TB) (*Economy, *Ledger) {
	tb.Helper()
	econ, _, ca, tpls := testEconomy(tb, ProviderSelfish, func(cfg *Config) { cfg.RegretFraction = 0.005 })
	universe := internUniverse(tb, econ, tpls)
	acct := econ.ledgerFor("t")
	acct.credit = money.FromDollars(0.02)
	threshold := acct.credit.MulFloat(econ.cfg.RegretFraction)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	crossing := 0
	for _, h := range universe {
		if len(acct.entries) == 30 {
			break
		}
		fails := []int{0, 0, 0, 1, 2, 5, 31}[rng.Intn(7)]
		econ.market.setFails(h, fails)
		bars := []money.Amount{threshold}
		regret := econ.market.investmentBar(&bars, h).MulFloat(0.3)
		if crossing < 4 {
			if price, _, err := econ.cfg.Optimizer.BuildPrice(h, ca); err == nil && price > acct.credit {
				regret = econ.market.investmentBar(&bars, h) // crosses, unaffordable
				crossing++
			}
		}
		acct.add(h, regret)
	}
	if built, considered := econ.invest(acct); len(built) != 0 || considered != crossing || crossing == 0 {
		tb.Fatalf("warm ledger: built %v, considered %d, want nothing built and %d (> 0) considered", built, considered, crossing)
	}
	return econ, acct
}

// BenchmarkInvest is one Eq. 3 invest pass over a warmed selfish ledger.
func BenchmarkInvest(b *testing.B) {
	econ, acct := warmInvest(b)
	b.ReportAllocs()
	for b.Loop() {
		econ.invest(acct)
	}
}

// TestInvestSteadyStateAllocs gates BenchmarkInvest's shape: a pass that
// re-tests crossing but unaffordable rows allocates nothing.
func TestInvestSteadyStateAllocs(t *testing.T) {
	econ, acct := warmInvest(t)
	if allocs := testing.AllocsPerRun(100, func() { econ.invest(acct) }); allocs != 0 {
		t.Errorf("warm invest allocates %.1f times per pass, want 0", allocs)
	}
}
