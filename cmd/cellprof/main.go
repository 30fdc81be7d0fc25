// Command cellprof runs the sequential MARVEL reference application under
// the §3.2 virtual-time profiler on a chosen host model and prints the
// flat profile, the call graph, and the kernel candidates the
// class-bounded clustering proposes — the step that identified the
// paper's five kernels.
//
//	cellprof -host ppe -images 10
//	cellprof -host desktop -min-coverage 0.05
package main

import (
	"flag"
	"fmt"
	"log"

	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cellprof: ")
	host := flag.String("host", "ppe", "ppe|desktop|laptop")
	images := flag.Int("images", 10, "number of images")
	width := flag.Int("width", 352, "frame width")
	height := flag.Int("height", 240, "frame height")
	minCov := flag.Float64("min-coverage", 0.02, "minimum self coverage to seed a kernel candidate")
	maxCand := flag.Int("max-candidates", 8, "maximum kernel candidates (one per SPE)")
	seed := flag.Uint64("seed", 20070710, "workload seed")
	flag.Parse()

	var model *cost.Model
	switch *host {
	case "ppe":
		model = cost.NewPPE()
	case "desktop":
		model = cost.NewDesktop()
	case "laptop":
		model = cost.NewLaptop()
	default:
		log.Fatalf("unknown host %q", *host)
	}

	w := marvel.Workload{Images: *images, W: *width, H: *height, Seed: *seed}
	if err := w.Check(); err != nil {
		log.Fatal(err)
	}
	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		log.Fatal(err)
	}
	ref := marvel.RunReference(model, w, ms)

	fmt.Printf("reference MARVEL on %s — %d image(s) %dx%d\n\n", model.Name, w.Images, w.W, w.H)
	fmt.Print(ref.Profile.Report())

	fmt.Println("\ncall graph (by attributed time):")
	for _, e := range ref.Profile.Edges() {
		fmt.Printf("  %-28s -> %-28s %8d calls %12s\n", e.Caller, e.Callee, e.Calls, e.Time)
	}

	cands := ref.Profile.IdentifyKernels(profile.IdentifyOptions{
		MinCoreCoverage: *minCov,
		MaxCandidates:   *maxCand,
	})
	fmt.Printf("\nkernel candidates (core coverage >= %.1f%%, clusters bounded by class):\n", *minCov*100)
	for i, c := range cands {
		fmt.Printf("  %d. class %-18s coverage %5.1f%%  core %s\n", i+1, c.Class, c.Coverage*100, c.Core)
		for _, m := range c.Methods {
			fmt.Printf("       %s\n", m)
		}
	}
	fmt.Printf("\nextraction+detection coverage of this run: %.1f%%\n", ref.ProcessingCoverage()*100)
}
