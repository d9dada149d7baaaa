package economy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/money"
	"repro/internal/structure"
	"repro/internal/workload"
)

// referenceInvest is the string-keyed invest pass the handle-based one
// replaced, kept verbatim in its decisions as the oracle of
// TestInvestMatchesReference: a map of live rows keyed by structure ID,
// a read-only sweep for any crossing row, then every row in sorted-ID
// order tested against its own investmentBar. It acts on the same
// economy through the same buildStructure, and writes the surviving rows
// back to the ledger.
func referenceInvest(e *Economy, acct *Ledger) ([]structure.ID, int) {
	if !acct.credit.IsPositive() {
		return nil, 0
	}
	threshold := acct.credit.MulFloat(e.cfg.RegretFraction)
	if !threshold.IsPositive() {
		return nil, 0
	}
	ca := e.cfg.Cache
	entries := make(map[structure.ID]*regretEntry, len(acct.entries))
	for _, en := range acct.entries {
		en := en
		entries[ca.Structure(en.h).ID] = &en
	}
	defer func() {
		acct.entries = acct.entries[:0]
		for _, en := range entries {
			acct.entries = append(acct.entries, *en)
		}
	}()
	crossed := false
	for id, entry := range entries {
		if entry.regret.MulInt(2) >= referenceBar(e.market, threshold, id) {
			crossed = true
			break
		}
	}
	if !crossed {
		return nil, 0
	}
	ids := make([]structure.ID, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var built []structure.ID
	considered := 0
	for _, id := range ids {
		entry := entries[id]
		bar := referenceBar(e.market, threshold, id)
		if entry.regret.MulInt(2) < bar {
			continue
		}
		considered++
		h := ca.Lookup(id)
		if ca.Has(h) || ca.Building(h) {
			delete(entries, id)
			continue
		}
		if _, err := ResolveID(e.cfg.Model.Catalog(), id); err != nil {
			delete(entries, id)
			continue
		}
		if e.market.buildStructure(h, acct) {
			built = append(built, id)
			delete(entries, id)
		}
	}
	return built, considered
}

// referenceBar is the per-row backoff loop the bar table replaced: the
// threshold multiplied once per recorded failure, at most 30 times.
func referenceBar(m *Market, threshold money.Amount, id structure.ID) money.Amount {
	bar := threshold
	if m.cfg.InvestBackoff > 1 {
		for i := 0; i < m.fails(m.cfg.Cache.Lookup(id)) && i < 30; i++ {
			bar = bar.MulFloat(m.cfg.InvestBackoff)
		}
	}
	return bar
}

// internUniverse interns every structure the templates can ask for —
// their columns, their index candidates and the extra CPU nodes — and
// returns their handles in ID order.
func internUniverse(tb testing.TB, econ *Economy, tpls []*workload.Template) []structure.Handle {
	tb.Helper()
	ca, cat := econ.cfg.Cache, econ.cfg.Model.Catalog()
	for _, tpl := range tpls {
		for _, ref := range tpl.Columns {
			st, err := structure.ColumnStructure(cat, ref)
			if err != nil {
				tb.Fatal(err)
			}
			ca.Intern(st)
		}
		for _, def := range tpl.IndexCandidates {
			st, err := structure.IndexStructure(cat, def)
			if err != nil {
				tb.Fatal(err)
			}
			ca.Intern(st)
		}
	}
	for n := 2; n <= econ.cfg.Model.Tunables().MaxNodes; n++ {
		ca.Intern(structure.CPUNode(n))
	}
	return slices.Clone(ca.Ordered())
}

// investRig builds one economy whose ledger, failure history, residency
// and credit are drawn from seed, so two rigs from one seed are
// identical.
func investRig(t testing.TB, seed int64, backoff float64) (*Economy, *Ledger) {
	t.Helper()
	econ, _, ca, tpls := testEconomy(t, ProviderSelfish, func(cfg *Config) {
		cfg.InvestBackoff = backoff
		cfg.RegretFraction = 0.005
		cfg.LedgerCap = 64
	})
	universe := internUniverse(t, econ, tpls)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })

	// A few structures are already resident or building: crossing rows
	// for them are consumed without a build.
	for _, h := range universe[:rng.Intn(6)] {
		if err := ca.StartBuild(ca.Structure(h), 0, 0); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			ca.CompleteDue()
		}
	}
	for _, h := range universe {
		if rng.Intn(3) == 0 {
			econ.market.setFails(h, rng.Intn(41))
		}
	}

	acct := econ.ledgerFor("t")
	// Credit from a few cents to tens of dollars: a poor account leaves
	// crossing rows it cannot afford in the ledger.
	acct.credit = money.FromDollars(50 * rng.Float64() * rng.Float64())
	threshold := acct.credit.MulFloat(econ.cfg.RegretFraction)
	rows := rng.Intn(econ.cfg.LedgerCap + 1)
	for i, h := range universe[:min(rows, len(universe))] {
		// Regret around the row's own bar, so about half the rows cross.
		k := 0
		if backoff > 1 {
			k = min(econ.market.fails(h), 30)
		}
		bar := threshold
		for j := 0; j < k; j++ {
			bar = bar.MulFloat(backoff)
		}
		regret := bar.MulFloat(0.5 * (0.8 + 0.4*rng.Float64()))
		if rng.Intn(3) == 0 {
			// On the bar to the micro-dollar: 2·regret is bar-1, bar or
			// bar+1, so a bar off by one rounding step decides differently.
			regret = money.Amount((int64(bar) - 1 + int64(rng.Intn(3))) / 2)
		}
		acct.entries = append(acct.entries, regretEntry{h: h, regret: regret, touched: int64(i + 1)})
	}
	acct.clock = int64(len(acct.entries))
	return econ, acct
}

// rowsByID renders a ledger's live rows as ID → (regret, touched).
func rowsByID(e *Economy, l *Ledger) map[structure.ID][2]int64 {
	out := make(map[structure.ID][2]int64, len(l.entries))
	for _, en := range l.entries {
		out[e.cfg.Cache.Structure(en.h).ID] = [2]int64{int64(en.regret), en.touched}
	}
	return out
}

// TestInvestMatchesReference checks the handle-based invest pass against
// the string-keyed reference on seeded random ledgers: both must build
// the same structures in the same order, count the same crossing rows,
// leave the same rows behind and charge the same credit. Backoff 1
// disables the bar table, 2 scales it exactly, and 1.5 rounds at every
// step, so only the reference's own multiplication sequence matches.
func TestInvestMatchesReference(t *testing.T) {
	var saturated, consumed, unaffordable, builds int
	for _, backoff := range []float64{1, 2, 1.5} {
		for seed := int64(1); seed <= 150; seed++ {
			name := fmt.Sprintf("backoff=%g/seed=%d", backoff, seed)
			got, gotAcct := investRig(t, seed, backoff)
			want, wantAcct := investRig(t, seed, backoff)
			if !reflect.DeepEqual(rowsByID(got, gotAcct), rowsByID(want, wantAcct)) {
				t.Fatalf("%s: rigs from one seed differ", name)
			}

			// Classify the rows up front for the coverage tally.
			ca := got.cfg.Cache
			threshold := gotAcct.credit.MulFloat(got.cfg.RegretFraction)
			crossing := map[structure.Handle]bool{}
			for _, en := range gotAcct.entries {
				if got.market.fails(en.h) > 30 {
					saturated++
				}
				if threshold.IsPositive() && en.regret.MulInt(2) >= referenceBar(got.market, threshold, ca.Structure(en.h).ID) {
					crossing[en.h] = true
					if ca.Has(en.h) || ca.Building(en.h) {
						consumed++
					}
				}
			}

			gotBuilt, gotConsidered := got.invest(gotAcct)
			wantBuilt, wantConsidered := referenceInvest(want, wantAcct)
			if !slices.Equal(gotBuilt, wantBuilt) {
				t.Fatalf("%s: built %v, reference built %v", name, gotBuilt, wantBuilt)
			}
			if gotConsidered != wantConsidered {
				t.Fatalf("%s: considered %d, reference %d", name, gotConsidered, wantConsidered)
			}
			if g, w := rowsByID(got, gotAcct), rowsByID(want, wantAcct); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: remaining rows %v, reference %v", name, g, w)
			}
			if gotAcct.credit != wantAcct.credit || gotAcct.invested != wantAcct.invested {
				t.Fatalf("%s: credit/invested %v/%v, reference %v/%v", name,
					gotAcct.credit, gotAcct.invested, wantAcct.credit, wantAcct.invested)
			}
			builds += len(gotBuilt)
			for _, en := range gotAcct.entries {
				if crossing[en.h] {
					unaffordable++ // crossed, but the account could not pay
				}
			}
		}
	}
	if saturated == 0 || consumed == 0 || unaffordable == 0 || builds == 0 {
		t.Errorf("generator missed a branch: %d rows past the 30-step saturation, %d crossing rows already resident or building, %d crossing rows unaffordable, %d builds",
			saturated, consumed, unaffordable, builds)
	}
}
