// Command marvelcell runs the ported MARVEL application on the simulated
// Cell B.E. and reports timings, speed-ups over the sequential reference,
// and (optionally) an activity Gantt chart of the schedule.
//
//	marvelcell -images 10 -scenario multi-spe -variant optimized -validate
//	marvelcell -scenario single-spe -trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cellport/internal/cell"
	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("marvelcell: ")
	images := flag.Int("images", 1, "number of images")
	width := flag.Int("width", 352, "frame width")
	height := flag.Int("height", 240, "frame height")
	scenario := flag.String("scenario", "multi-spe", "single-spe|multi-spe|multi-spe2|pipelined")
	variant := flag.String("variant", "optimized", "naive|optimized")
	validate := flag.Bool("validate", false, "compare every output with the sequential reference")
	showTrace := flag.Bool("trace", false, "print an activity Gantt chart (1 image recommended)")
	footprint := flag.Bool("footprint", false, "print the kernels' local-store budget plan and exit")
	seed := flag.Uint64("seed", 20070710, "workload seed")
	flag.Parse()

	var scen marvel.Scenario
	switch *scenario {
	case "single-spe":
		scen = marvel.SingleSPE
	case "multi-spe":
		scen = marvel.MultiSPE
	case "multi-spe2":
		scen = marvel.MultiSPE2
	case "pipelined":
		scen = marvel.Pipelined
	default:
		log.Fatalf("unknown scenario %q", *scenario)
	}
	var vr marvel.Variant
	switch *variant {
	case "naive":
		vr = marvel.Naive
	case "optimized":
		vr = marvel.Optimized
	default:
		log.Fatalf("unknown variant %q", *variant)
	}

	w := marvel.Workload{Images: *images, W: *width, H: *height, Seed: *seed}
	if err := w.Check(); err != nil {
		log.Fatal(err)
	}
	if *footprint {
		if err := marvel.RenderFootprints(os.Stdout, vr, w.W, w.H); err != nil {
			log.Fatal(err)
		}
		return
	}
	mcfg := cell.DefaultConfig()
	mcfg.MemorySize = 64 << 20
	var rec *trace.Recorder
	if *showTrace {
		rec = trace.NewRecorder()
		mcfg.Tracer = rec
	}

	res, err := marvel.RunPorted(marvel.PortedConfig{
		Workload:      w,
		Scenario:      scen,
		Variant:       vr,
		Validate:      *validate,
		MachineConfig: &mcfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MARVEL on simulated Cell B.E. — %s, %s kernels, %d image(s) %dx%d\n",
		scen, vr, w.Images, w.W, w.H)
	fmt.Printf("  one-time overhead : %s\n", res.OneTime)
	fmt.Printf("  per-image time    : %s\n", res.PerImage)
	fmt.Printf("  total             : %s\n", res.Total)
	if scen == marvel.SingleSPE {
		fmt.Println("  kernel round trips (per image):")
		for _, id := range marvel.KernelIDs {
			fmt.Printf("    %-12s %s\n", id, res.KernelTime[id])
		}
	}
	fmt.Println("  SPE busy time:")
	for i, b := range res.SPEBusy {
		if b > 0 {
			fmt.Printf("    SPE%d %s\n", i, b)
		}
	}

	ms, err := marvel.NewModelSet(w.Seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, host := range []*cost.Model{cost.NewPPE(), cost.NewDesktop(), cost.NewLaptop()} {
		ref := marvel.RunReference(host, w, ms)
		fmt.Printf("  speed-up vs %-8s per-image %6.2fx   whole-run %6.2fx\n",
			host.Name,
			ref.PerImage.Seconds()/res.PerImage.Seconds(),
			ref.Total.Seconds()/res.Total.Seconds())
	}

	if *validate {
		if res.ValidationErrors == 0 {
			fmt.Println("  validation: all outputs identical to the sequential reference")
		} else {
			fmt.Printf("  validation: %d MISMATCHES\n", res.ValidationErrors)
			os.Exit(1)
		}
	}
	if rec != nil {
		fmt.Println("\nschedule (C=compute D=dma-wait I=io):")
		if err := rec.Gantt(os.Stdout, 100); err != nil {
			log.Fatal(err)
		}
	}
}
