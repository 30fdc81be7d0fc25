// Scheduling study (Fig. 4 + §4.2): compares the paper's scheduling
// scenarios on the simulated Cell, prints the Amdahl estimates of
// Eqs. 1–3 next to measured speed-ups, and renders the actual PPE/SPE
// schedule as a Gantt chart for each scenario.
package main

import (
	"fmt"
	"log"
	"os"

	"cellport"
	"cellport/internal/cell"
	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scheduling: ")

	w := marvel.Workload{Images: 1, W: 352, H: 240, Seed: 7}
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		log.Fatal(err)
	}
	ref := marvel.RunReference(cost.NewPPE(), w, ms)
	cov := ref.KernelCoverage()

	// Run each scenario with a tracer attached.
	type result struct {
		res *marvel.PortedResult
		rec *trace.Recorder
	}
	results := map[marvel.Scenario]result{}
	scenarios := []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2}
	for _, scen := range scenarios {
		mcfg := cell.DefaultConfig()
		mcfg.MemorySize = 64 << 20
		rec := trace.NewRecorder()
		mcfg.Tracer = rec
		res, err := marvel.RunPorted(marvel.PortedConfig{
			Workload:      w,
			Scenario:      scen,
			Variant:       marvel.Optimized,
			MachineConfig: &mcfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		results[scen] = result{res, rec}
	}

	// Amdahl estimates from measured per-kernel data (SingleSPE gives
	// clean non-overlapping round trips); each scenario's schedule says
	// which equation applies.
	single := results[marvel.SingleSPE].res
	speed := map[marvel.KernelID]float64{}
	for _, id := range marvel.KernelIDs {
		speed[id] = ref.KernelTime[id].Seconds() / single.KernelTime[id].Seconds()
	}
	fmt.Println("Amdahl estimates (from measured kernel coverage + speed-ups) vs measured:")
	for _, scen := range scenarios {
		sched, err := scen.Schedule()
		if err != nil {
			log.Fatal(err)
		}
		groups, err := sched.Groups(cov, speed)
		if err != nil {
			log.Fatal(err)
		}
		est, err := cellport.EstimateGrouped(groups)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s estimate %6.2fx   measured %6.2fx\n",
			scen, est, ref.PerImage.Seconds()/results[scen].res.PerImage.Seconds())
	}

	fmt.Println("\nworth-it check (§4.2): pushing one kernel from 10x to 100x when it")
	fmt.Println("covers 10% of the application:")
	e10, _ := cellport.EstimateSpeedUp1(cellport.EstKernel{Name: "k", Fraction: 0.1, SpeedUp: 10})
	e100, _ := cellport.EstimateSpeedUp1(cellport.EstKernel{Name: "k", Fraction: 0.1, SpeedUp: 100})
	fmt.Printf("  Sapp(10x) = %.4f, Sapp(100x) = %.4f — not worth the effort\n", e10, e100)

	for _, scen := range scenarios {
		fmt.Printf("\nschedule, %s — per-image window, one-time setup clipped\n", scen)
		fmt.Printf("(C=compute D=dma-wait I=io; PPE lane includes preprocessing):\n")
		r := results[scen]
		start := sim.Time(r.res.Total - r.res.PerImage)
		if err := r.rec.Clip(start, sim.Time(r.res.Total)).Gantt(os.Stdout, 100); err != nil {
			log.Fatal(err)
		}
	}
}
