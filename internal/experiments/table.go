package experiments

import "io"

// Experiment is one row of the experiment table: the name paperbench
// selects it by (-exp) and a run that renders its tables to w and
// returns the data the JSON sidecar records.
type Experiment struct {
	Name string
	Run  func(cfg Config, w io.Writer) (any, error)
}

// row adapts an experiment function and its renderer to an Experiment.
func row[T any](name string, run func(Config) (T, error), render func(io.Writer, T)) Experiment {
	return Experiment{Name: name, Run: func(cfg Config, w io.Writer) (any, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		render(w, r)
		return r, nil
	}}
}

// All is the experiment table, in execution order. It is the one list of
// experiments: paperbench runs its rows, and EXPERIMENTS.md quotes their
// full-size output (TestGoldenExperimentsDoc).
var All = []Experiment{
	row("table1", Table1, RenderTable1),
	row("naive", NaiveSpeedups, RenderNaive),
	row("fig6", Fig6, RenderFig6),
	row("fig7", Fig7, RenderFig7),
	row("eqns", Eqns, RenderEqns),
	row("profile", ProfileExp, RenderProfile),
	row("hosts", HostsExp, RenderHosts),
	row("scaling", Scaling, RenderScaling),
	row("pipeline", Pipeline, RenderPipeline),
	row("overhead", Overhead, RenderOverhead),
	row("faults", FaultsExp, RenderFaults),
	row("serve", ServeExp, RenderServe),
	row("chaos", ChaosExp, RenderChaos),
	row("fleet", FleetExp, RenderFleet),
	row("race", RaceExp, RenderRace),
}

// Find returns the row of All named name.
func Find(name string) (Experiment, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
