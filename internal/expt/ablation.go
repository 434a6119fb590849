package expt

import (
	"fmt"

	"codelayout/internal/isa"
	"codelayout/internal/stats"
)

// ablSplit — fine-grain splitting (the paper's contribution) vs the Spike
// distribution's hot/cold splitting vs no splitting, all with chaining and
// Pettis–Hansen ordering.
func ablSplit(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Ablation: splitting strategy (application misses, 128B/4-way)",
		"strategy", "64KB", "128KB", "hot text bytes")
	rows := []struct{ label, layout string }{
		{"no split (chain+porder)", "chain+porder"},
		{"hot/cold split", "hotcold"},
		{"fine-grain split (all)", "all"},
	}
	for _, r := range rows {
		m, err := s.Measure(r.layout, s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		rep := s.Report(r.layout)
		hot := int64(0)
		if rep != nil {
			hot = rep.HotWords * isa.WordBytes
		}
		t.AddRow(r.label, m.App4W[64].Misses, m.App4W[128].Misses, hot)
	}
	t.Note(paperNote("abl-split"))
	return []*stats.Table{t}, nil
}

// ablCFA — the conflict-free-area (software trace cache) variant the paper
// implemented and discarded: OLTP's hot traces exceed any reasonable
// reserved area.
func ablCFA(s *Session) ([]*stats.Table, error) {
	all, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	cfa, err := s.Measure("cfa", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: CFA reserved area (64KB cache, 16KB reserved)",
		"layout", "64KB DM misses", "64KB 4-way misses", "pad bytes")
	repAll, repCFA := s.Report("all"), s.Report("cfa")
	t.AddRow("all", all.AppDM[64][128].Misses, all.App4W[64].Misses, repAll.PadWords*isa.WordBytes)
	t.AddRow("all+CFA", cfa.AppDM[64][128].Misses, cfa.App4W[64].Misses, repCFA.PadWords*isa.WordBytes)
	t.AddRow("reserved-area code (KB)", "-", "-", repCFA.CFAReservedWords*isa.WordBytes/1024)
	t.Note(paperNote("abl-cfa"))
	return []*stats.Table{t}, nil
}

// ablProfile — layout quality when the profile comes from DCPI-style PC
// sampling instead of exact Pixie instrumentation.
func ablProfile(s *Session) ([]*stats.Table, error) {
	base, px, err := s.baseAndAll(s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	dc, err := s.Measure("dcpi-all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Ablation: profile source (DCPI period %d)", dcpiPeriod),
		"profile", "64KB misses", "128KB misses", "vs base @128KB")
	t.AddRow("none (base)", base.App4W[64].Misses, base.App4W[128].Misses, "100%")
	t.AddRow("Pixie (exact)", px.App4W[64].Misses, px.App4W[128].Misses,
		pctOf(px.App4W[128].Misses, base.App4W[128].Misses))
	t.AddRow("DCPI (sampled)", dc.App4W[64].Misses, dc.App4W[128].Misses,
		pctOf(dc.App4W[128].Misses, base.App4W[128].Misses))
	t.Note("both profile sources drive Spike in practice; sampling costs little layout quality")
	return []*stats.Table{t}, nil
}
