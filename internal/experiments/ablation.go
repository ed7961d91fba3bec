package experiments

import (
	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/report"
	"alltoall/internal/torus"
)

// ablate quantifies the simulator's modeling decisions (DESIGN.md section
// "Modeling decisions forced by packet-atomic simulation") on one symmetric
// and one asymmetric partition. Each table row disables one mechanism; the
// grid is one cell a (variant, partition) run, variant-major.
func ablate() experiment {
	par := func(mut func(*network.Params)) func(*collective.Options) {
		return func(o *collective.Options) {
			p := network.DefaultParams()
			mut(&p)
			o.Par = p
		}
	}
	variants := []struct {
		name string
		mut  func(*collective.Options)
	}{
		{"baseline", func(*collective.Options) {}},
		{"no VC lookahead", par(func(p *network.Params) { p.VCLookahead = 1 })},
		{"no transit priority", par(func(p *network.Params) { p.InjectTokens = 0 })},
		{"eager escape", par(func(p *network.Params) { p.EscapeDelay = 0 })},
		{"unpaced injection", func(o *collective.Options) { o.Unpaced = true }},
		{"strict pacing", func(o *collective.Options) { o.PaceBurst = 1 }},
	}
	shapes := []torus.Shape{torus.New(8, 8, 8), torus.New(8, 8, 16)}
	e := experiment{id: "ablate"}
	for _, v := range variants {
		for _, s := range shapes {
			e.cells = append(e.cells, cell{strat: collective.StratAR, paper: s,
				tune: func(o *collective.Options) error {
					v.mut(o)
					// A variant that cannot reach 12.5% of peak has
					// collapsed; cutting it off keeps the jam-regime rows
					// from running for hours.
					o.MaxTime = int64(o.Shape.PeakTime(o.MsgBytes) * 8)
					return nil
				}})
		}
	}
	e.render = func(outs []outcome) *report.Table {
		t := report.NewTable("Ablation: AR percent of peak with one mechanism disabled per row",
			"Variant", outs[0].run.String()+" %", outs[1].run.String()+" %")
		for i, v := range variants {
			r := []any{v.name}
			for _, o := range outs[i*len(shapes) : (i+1)*len(shapes)] {
				if o.collapsed {
					r = append(r, "<12.5 (collapsed)")
				} else {
					r = append(r, o.res.PercentPeak)
				}
			}
			t.AddRow(r...)
		}
		t.AddNote("collapsed rows exceeded 8x the Equation 2 peak time and were cut off")
		return t
	}
	return e
}
