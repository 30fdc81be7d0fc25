package experiments

import (
	"fmt"
	"io"
	"strings"

	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/profile"
	"cellport/internal/sim"
)

// ProfileResult holds the §5.2 profiling reproduction.
type ProfileResult struct {
	// CoverageOneImage / CoverageSet: fraction of total runtime in
	// extraction+detection for 1 image and for the larger set (paper:
	// 87% and 96% — the paper's one-image number excludes the one-time
	// overhead, which we report separately).
	CoverageOneImage float64
	CoverageSet      float64
	SetSize          int
	// OneTimeFracPPE is the one-time overhead share of a 1-image PPE run
	// (paper: ~60%).
	OneTimeFracPPE float64
	// PerKernel coverage of per-image processing (paper: 8/54/6/28/2%).
	PerKernel map[marvel.KernelID]float64
	// Candidates are the kernel clusters the profiler proposes.
	Candidates []profile.Candidate
	// FlatReport is the rendered gprof-style profile of the set run.
	FlatReport string
}

// ProfileExp regenerates the §5.2 profiling step on the PPE.
func ProfileExp(cfg Config) (*ProfileResult, error) {
	setSize := 50
	if cfg.Quick {
		setSize = 8
	}
	sizes := []int{1, setSize}
	refs, err := parallel.RunIndexed(cfg.Parallel, len(sizes), func(i int) (*marvel.ReferenceResult, error) {
		return cfg.artifacts().Reference(cost.NewPPE(), cfg.Workload(sizes[i]))
	})
	if err != nil {
		return nil, err
	}
	one, set := refs[0], refs[1]

	// Per-image coverage excluding the one-time overhead (the paper's
	// 87% counts extraction+detection against one image's full pipeline
	// within an amortized run).
	var kernels sim.Duration
	for _, t := range one.KernelTime {
		kernels += t
	}
	res := &ProfileResult{
		CoverageOneImage: kernels.Seconds() / one.PerImage.Seconds(),
		CoverageSet:      set.ProcessingCoverage(),
		SetSize:          setSize,
		OneTimeFracPPE:   one.OneTime.Seconds() / one.Total.Seconds(),
		PerKernel:        one.KernelCoverage(),
		Candidates: set.Profile.IdentifyKernels(profile.IdentifyOptions{
			MinCoreCoverage: 0.015,
			MaxCandidates:   8,
		}),
		FlatReport: set.Profile.Report(),
	}
	return res, nil
}

// RenderProfile prints the profiling reproduction.
func RenderProfile(w io.Writer, r *ProfileResult) {
	fmt.Fprintf(w, "§5.2 — profiling the reference application on the PPE\n\n")
	fmt.Fprintf(w, "extraction+detection coverage, 1 image (excl. one-time): %5.1f%%  (paper 87%%)\n",
		r.CoverageOneImage*100)
	fmt.Fprintf(w, "extraction+detection coverage, %d images (whole run):    %5.1f%%  (paper 96%%)\n",
		r.SetSize, r.CoverageSet*100)
	fmt.Fprintf(w, "one-time overhead share of a 1-image PPE run:            %5.1f%%  (paper ~60%%)\n\n",
		r.OneTimeFracPPE*100)
	paper := make([]string, len(marvel.KernelIDs))
	for i, id := range marvel.KernelIDs {
		paper[i] = fmt.Sprintf("%.0f", id.Paper().Coverage*100)
	}
	fmt.Fprintf(w, "per-kernel coverage of per-image processing (paper %s%%):\n", strings.Join(paper, "/"))
	for _, id := range marvel.KernelIDs {
		fmt.Fprintf(w, "  %-12s %5.1f%%\n", id, r.PerKernel[id]*100)
	}
	fmt.Fprintf(w, "\nkernel candidates proposed by call-graph clustering:\n")
	for _, c := range r.Candidates {
		fmt.Fprintf(w, "  %-18s coverage %5.1f%%  methods %v\n", c.Class, c.Coverage*100, c.Methods)
	}
	fmt.Fprintf(w, "\nflat profile (%d-image run):\n%s", r.SetSize, r.FlatReport)
}

// HostsResult holds the §5.2 reference-machine ratios.
type HostsResult struct {
	KernelSlowdownDesktop map[marvel.KernelID]float64 // PPE time / Desktop time
	KernelSlowdownLaptop  map[marvel.KernelID]float64
	PreprocSlowdownDesk   float64
	PreprocSlowdownLaptop float64
	OneTimeFrac           map[string]float64 // per host, 1-image run
}

// HostsExp regenerates the §5.2 host comparison.
func HostsExp(cfg Config) (*HostsResult, error) {
	w := cfg.Workload(1)
	hosts := []func() *cost.Model{cost.NewPPE, cost.NewDesktop, cost.NewLaptop}
	refs, err := parallel.RunIndexed(cfg.Parallel, len(hosts), func(i int) (*marvel.ReferenceResult, error) {
		return cfg.artifacts().Reference(hosts[i](), w)
	})
	if err != nil {
		return nil, err
	}
	ppe, desk, lap := refs[0], refs[1], refs[2]
	res := &HostsResult{
		KernelSlowdownDesktop: map[marvel.KernelID]float64{},
		KernelSlowdownLaptop:  map[marvel.KernelID]float64{},
		OneTimeFrac:           map[string]float64{},
	}
	for _, id := range marvel.KernelIDs {
		res.KernelSlowdownDesktop[id] = ppe.KernelTime[id].Seconds() / desk.KernelTime[id].Seconds()
		res.KernelSlowdownLaptop[id] = ppe.KernelTime[id].Seconds() / lap.KernelTime[id].Seconds()
	}
	res.PreprocSlowdownDesk = ppe.PreprocessPerImage.Seconds() / desk.PreprocessPerImage.Seconds()
	res.PreprocSlowdownLaptop = ppe.PreprocessPerImage.Seconds() / lap.PreprocessPerImage.Seconds()
	for _, r := range []*marvel.ReferenceResult{ppe, desk, lap} {
		res.OneTimeFrac[r.Host] = r.OneTime.Seconds() / r.Total.Seconds()
	}
	return res, nil
}

// RenderHosts prints the host-ratio reproduction.
func RenderHosts(w io.Writer, r *HostsResult) {
	fmt.Fprintf(w, "§5.2 — reference machine comparison (1 image)\n\n")
	fmt.Fprintf(w, "kernel slow-down on the PPE (paper: ~3.2x vs Desktop, ~2.5x vs Laptop):\n")
	fmt.Fprintf(w, "  %-12s %10s %10s\n", "kernel", "vs Desktop", "vs Laptop")
	for _, id := range marvel.KernelIDs {
		fmt.Fprintf(w, "  %-12s %9.2fx %9.2fx\n", id,
			r.KernelSlowdownDesktop[id], r.KernelSlowdownLaptop[id])
	}
	fmt.Fprintf(w, "\npreprocessing slow-down (paper: 1.4x vs Desktop, 1.2x vs Laptop):\n")
	fmt.Fprintf(w, "  vs Desktop %.2fx, vs Laptop %.2fx\n", r.PreprocSlowdownDesk, r.PreprocSlowdownLaptop)
	fmt.Fprintf(w, "\none-time overhead share of a 1-image run (paper: ~60%% PPE, ~80%% hosts):\n")
	for _, h := range []string{"PPE", "Desktop", "Laptop"} {
		fmt.Fprintf(w, "  %-8s %5.1f%%\n", h, r.OneTimeFrac[h]*100)
	}
}
