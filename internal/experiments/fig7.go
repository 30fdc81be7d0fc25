package experiments

import (
	"fmt"
	"io"
	"strings"

	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// Fig7Cell is one bar of Figure 7: a configuration's speed-up over a
// reference machine for a given image-set size.
type Fig7Cell struct {
	Images int
	// PerImage excludes the one-time overhead (the basis of the paper's
	// §4 estimates); Whole includes it.
	PerImage float64
	Whole    float64
}

// Fig7Result holds the full figure: speed-ups of each Cell configuration
// over each reference machine, plus the raw times.
type Fig7Result struct {
	Sizes []int
	// Times[config][size] in virtual seconds; configs: PPE, Desktop,
	// Laptop, Cell/single-SPE, Cell/multi-SPE, Cell/multi-SPE2.
	RefTotal    map[string]map[int]sim.Duration
	RefPerImage map[string]sim.Duration
	RefOneTime  map[string]sim.Duration
	CellTotal   map[string]map[int]sim.Duration
	CellPerImg  map[string]sim.Duration
	CellOneTime map[string]sim.Duration
	// SpeedUp[cellConfig][refMachine] per set size.
	SpeedUp map[string]map[string][]Fig7Cell
}

// CellConfigs lists the ported configurations in presentation order.
var CellConfigs = []string{"single-spe", "multi-spe", "multi-spe2"}

// RefMachines lists the reference machines in presentation order.
var RefMachines = []string{"PPE", "Desktop", "Laptop"}

// Fig7 regenerates Figure 7: whole-application speed-ups of the ported
// application (single-SPE and parallel-SPE scenarios) over the PPE,
// Desktop and Laptop references, for image sets of 1/10/50.
//
// Reference runs are measured once and extended linearly over set sizes
// (the sequential application is exactly linear: total = oneTime +
// n × perImage); the Cell runs are simulated at every set size.
func Fig7(cfg Config) (*Fig7Result, error) {
	res := &Fig7Result{
		Sizes:       cfg.setSizes(),
		RefTotal:    map[string]map[int]sim.Duration{},
		RefPerImage: map[string]sim.Duration{},
		RefOneTime:  map[string]sim.Duration{},
		CellTotal:   map[string]map[int]sim.Duration{},
		CellPerImg:  map[string]sim.Duration{},
		CellOneTime: map[string]sim.Duration{},
		SpeedUp:     map[string]map[string][]Fig7Cell{},
	}
	w1 := cfg.Workload(1)
	// The reference measurements and the scenario×set-size grid are
	// independent simulations (each owns a private engine and machine), so
	// both fan out over the worker pool; results are keyed by index, which
	// keeps the assembled figure identical to the sequential path.
	hosts := []func() *cost.Model{cost.NewPPE, cost.NewDesktop, cost.NewLaptop}
	refs, err := parallel.RunIndexed(cfg.Parallel, len(hosts), func(i int) (*marvel.ReferenceResult, error) {
		return cfg.artifacts().Reference(hosts[i](), w1)
	})
	if err != nil {
		return nil, err
	}
	for _, ref := range refs {
		res.RefPerImage[ref.Host] = ref.PerImage
		res.RefOneTime[ref.Host] = ref.OneTime
		res.RefTotal[ref.Host] = map[int]sim.Duration{}
		for _, n := range res.Sizes {
			res.RefTotal[ref.Host][n] = ref.OneTime + sim.Duration(n)*ref.PerImage
		}
	}
	type gridPoint struct {
		scen marvel.Scenario
		n    int
	}
	var grid []gridPoint
	for _, scen := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2} {
		res.CellTotal[scen.String()] = map[int]sim.Duration{}
		for _, n := range res.Sizes {
			grid = append(grid, gridPoint{scen, n})
		}
	}
	runs, err := parallel.RunIndexed(cfg.Parallel, len(grid), func(i int) (*marvel.PortedResult, error) {
		g := grid[i]
		label := fmt.Sprintf("fig7/%s/n=%d", g.scen, g.n)
		ported, err := cfg.runPorted(label, cfg.ported(cfg.Workload(g.n), g.scen, marvel.Optimized))
		if err != nil {
			return nil, fmt.Errorf("fig7 %s n=%d: %w", g.scen, g.n, err)
		}
		return ported, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ported := range runs {
		name := grid[i].scen.String()
		res.CellTotal[name][grid[i].n] = ported.Total
		res.CellPerImg[name] = ported.PerImage
		res.CellOneTime[name] = ported.OneTime
	}
	for _, cc := range CellConfigs {
		res.SpeedUp[cc] = map[string][]Fig7Cell{}
		for _, rm := range RefMachines {
			var cells []Fig7Cell
			for _, n := range res.Sizes {
				cells = append(cells, Fig7Cell{
					Images:   n,
					PerImage: res.RefPerImage[rm].Seconds() / res.CellPerImg[cc].Seconds(),
					Whole:    res.RefTotal[rm][n].Seconds() / res.CellTotal[cc][n].Seconds(),
				})
			}
			res.SpeedUp[cc][rm] = cells
		}
	}
	return res, nil
}

// RenderFig7 prints the figure as grouped per-reference tables.
func RenderFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintf(w, "Figure 7 — application speed-up over the reference machines\n")
	fmt.Fprintf(w, "(per-image = steady-state processing, excl. one-time model load;\n")
	fmt.Fprintf(w, " whole-run = including the one-time overhead)\n\n")
	for _, rm := range RefMachines {
		fmt.Fprintf(w, "vs %s:\n", rm)
		fmt.Fprintf(w, "  %-12s %10s", "config", "per-image")
		for _, n := range r.Sizes {
			fmt.Fprintf(w, " %8s", fmt.Sprintf("run(%d)", n))
		}
		fmt.Fprintln(w)
		for _, cc := range CellConfigs {
			cells := r.SpeedUp[cc][rm]
			fmt.Fprintf(w, "  %-12s %9.2fx", cc, cells[0].PerImage)
			for _, c := range cells {
				fmt.Fprintf(w, " %7.2fx", c.Whole)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "speed-up bars vs Desktop (per-image, each █ = 1x):\n")
	for _, cc := range CellConfigs {
		s := r.SpeedUp[cc]["Desktop"][0].PerImage
		fmt.Fprintf(w, "  %-12s |%s %.2fx\n", cc, strings.Repeat("█", int(s+0.5)), s)
	}
}
