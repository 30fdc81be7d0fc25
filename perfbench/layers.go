package main

import (
	"fmt"
	"runtime"
	"time"

	"cellport/internal/eib"
	"cellport/internal/exec"
	"cellport/internal/features"
	"cellport/internal/img"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// Each micro-driver repeats its call until it has at least minSamples
// samples and has run for at least sampleBudget, then reports the
// median sample.
const (
	minSamples   = 5
	sampleBudget = 150 * time.Millisecond
)

// sample repeats one measurement under the sampling rule and returns
// the median of the values it produced.
func sample(measure func() (float64, error)) (float64, error) {
	var xs []float64
	t0 := time.Now()
	for len(xs) < minSamples || time.Since(t0) < sampleBudget {
		x, err := measure()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// splitmix64 is the benchmark's own seeded generator for synthetic
// layer inputs.
type splitmix64 uint64

func (r *splitmix64) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// frameSeed derives the frame corpus seed from the workload seed.
func frameSeed(seed uint64) uint64 {
	r := splitmix64(seed)
	return r.next()
}

// pixelKernel is one per-pixel layer call: a feature accumulator or an
// image-package pass over a whole frame.
type pixelKernel struct {
	metric, call string
	run          func(im *img.RGB)
}

func pixelKernels(seed uint64) []pixelKernel {
	var bins []int32
	return []pixelKernel{
		{"features.ch_ns_per_px", "features.AccumulateHistogram", func(im *img.RGB) {
			var a features.HistAcc
			a.AccumulateHistogram(im, 0, im.H)
		}},
		{"features.cc_ns_per_px", "features.AccumulateCorrelogram", func(im *img.RGB) {
			var a features.CorrAcc
			a.AccumulateCorrelogram(im, 0, im.H)
		}},
		{"features.tx_ns_per_px", "features.AccumulateTexture", func(im *img.RGB) {
			var a features.TexAcc
			a.AccumulateTexture(im, 0, im.H)
		}},
		{"features.eh_ns_per_px", "features.AccumulateEdge", func(im *img.RGB) {
			var a features.EdgeAcc
			a.AccumulateEdge(im, 0, im.H)
		}},
		{"img.hsv_ns_per_px", "img.QuantizeRows", func(im *img.RGB) {
			if n := im.W * im.H; len(bins) < n {
				bins = make([]int32, n)
			}
			img.QuantizeRows(im, 0, im.H, bins)
		}},
		{"img.synth_ns_per_px", "img.Synthesize", func(im *img.RGB) {
			img.Synthesize(seed, im.W, im.H)
		}},
	}
}

// kernelDriver times every per-pixel kernel over the workload's own
// seeded frames and reports host ns per pixel.
func kernelDriver(b *bench, frame marvel.Workload, vals map[string]float64) error {
	frame.Images = 2
	frames := frame.Generate()
	for _, k := range pixelKernels(frame.Seed) {
		v, err := sample(func() (float64, error) {
			var d time.Duration
			px := 0
			for _, im := range frames {
				dd, err := b.m.time(kindLayer, k.call, func() error { k.run(im); return nil })
				if err != nil {
					return 0, err
				}
				d += dd
				px += im.W * im.H
			}
			return float64(d.Nanoseconds()) / float64(px), nil
		})
		if err != nil {
			return err
		}
		vals[k.metric] = v
	}
	return nil
}

// Sizes of the synthetic layer inputs.
const (
	stormEvents   = 200_000 // events per sim.Engine storm
	stormSources  = 256     // self-rescheduling event chains
	churnFlows    = 512     // transfers started per EIB churn run
	execWidth     = 64      // independent continuation chains per graph
	execDepth     = 16      // continuations per chain
	execGraphReps = 4       // graphs per timed sample
)

// eventStorm times sim.Engine.Run over a seeded storm of
// self-rescheduling events and reports events per host second.
func eventStorm(b *bench, vals map[string]float64) error {
	rng := splitmix64(b.seed)
	v, err := sample(func() (float64, error) {
		e := sim.NewEngine()
		left := stormEvents
		var fire func()
		fire = func() {
			if left > 0 {
				left--
				e.After(sim.Duration(1+rng.next()%1000)*sim.Nanosecond, fire)
			}
		}
		for i := 0; i < stormSources; i++ {
			e.After(sim.Duration(rng.next()%1000)*sim.Nanosecond, fire)
		}
		d, err := b.m.time(kindLayer, "sim.Engine.Run", e.Run)
		return float64(e.EventCount) / d.Seconds(), err
	})
	vals["sim.events_per_s"] = v
	return err
}

// eibChurn drives seeded flow churn through eib.New / Bus.Start —
// transfers of mixed shapes starting at staggered instants, so arrivals
// land on in-flight flows — and reports host ns per bandwidth
// reallocation.
func eibChurn(b *bench, vals map[string]float64) error {
	rng := splitmix64(b.seed ^ 0xe1b)
	v, err := sample(func() (float64, error) {
		e := sim.NewEngine()
		bus := eib.New(e, eib.DefaultConfig())
		for i := 0; i < churnFlows; i++ {
			var src, dst eib.Port
			switch rng.next() % 3 {
			case 0:
				src, dst = eib.PortMemory, eib.SPEPort(int(rng.next()%8))
			case 1:
				src, dst = eib.SPEPort(int(rng.next()%8)), eib.SPEPort(int(rng.next()%8))
			default:
				src, dst = eib.Port(rng.next()%3), eib.SPEPort(int(rng.next()%8))
			}
			size := int64(rng.next()%(1<<20)) + 1
			at := sim.Time(0).Add(sim.Duration(rng.next()%2000) * sim.Microsecond)
			e.At(at, func() { bus.Start(src, dst, size, nil) })
		}
		d, err := b.m.time(kindLayer, "eib.Bus", e.Run)
		total, _, _ := bus.Reallocs()
		if total == 0 {
			return 0, fmt.Errorf("eib churn: no reallocations")
		}
		return float64(d.Nanoseconds()) / float64(total), err
	})
	vals["eib.realloc_ns"] = v
	return err
}

// execOverhead times empty task graphs on the work-stealing executor:
// independent chains of Go plus Then continuations joined by WhenAll.
// It reports host ns per task and steals per task.
func execOverhead(b *bench, vals map[string]float64) error {
	ex := exec.New(b.procs)
	defer ex.Close()
	var tasks, steals uint64
	v, err := sample(func() (float64, error) {
		s0 := ex.Stats()
		d, err := b.m.time(kindLayer, "exec.Go+WhenAll", func() error {
			for r := 0; r < execGraphReps; r++ {
				chains := make([]*exec.Future[int], execWidth)
				for i := range chains {
					f := exec.Go(ex, func() int { return 0 })
					for j := 0; j < execDepth; j++ {
						f = exec.Then(ex, f, func(v int) int { return v + 1 })
					}
					chains[i] = f
				}
				for i, v := range exec.WhenAll(ex, chains).Wait() {
					if v != execDepth {
						return fmt.Errorf("exec chain %d ended at %d, want %d", i, v, execDepth)
					}
				}
			}
			return nil
		})
		s1 := ex.Stats()
		ran := s1.Ran - s0.Ran
		tasks += ran
		steals += s1.Steals - s0.Steals
		if ran == 0 {
			return 0, fmt.Errorf("exec graph ran no tasks")
		}
		return float64(d.Nanoseconds()) / float64(ran), err
	})
	vals["exec.task_overhead_ns"] = v
	if tasks > 0 {
		vals["exec.steals_per_task"] = float64(steals) / float64(tasks)
	}
	return err
}

// referenceDriver times a cold ArtifactCache.Reference — images, model
// set and host reference run built from nothing — at each geometry of
// the workload's calibration, and reports the median in ms.
func referenceDriver(b *bench, base serve.Config, vals map[string]float64) error {
	geoms := frameHeights(base)
	host := bladeMachine().PPEModel
	v, err := sample(func() (float64, error) {
		var d time.Duration
		for _, h := range geoms {
			arts := marvel.NewArtifactCache()
			w := marvel.Workload{Images: 1, W: base.Frame.W, H: h, Seed: base.Frame.Seed}
			dd, err := b.m.time(kindLayer, "marvel.Reference", func() error {
				_, err := arts.Reference(host, w)
				return err
			})
			if err != nil {
				return 0, err
			}
			d += dd
		}
		return ms(d) / float64(len(geoms)), nil
	})
	vals["marvel.reference_ms"] = v
	return err
}

// frameHeights are the frame heights a calibration measures: the base
// geometry, and the double-height one when the stream carries tall
// frames.
func frameHeights(base serve.Config) []int {
	if base.TallFrac > 0 {
		return []int{base.Frame.H, 2 * base.Frame.H}
	}
	return []int{base.Frame.H}
}

// serveDrivers measures the serving layer on the workload's own
// serving configurations: the table-only loop (host ns per request and
// the loop's counters), and the full-fidelity run against the same run
// on the table only (verification cost per batch) and on the sequential
// loop against the sharded engine at GOMAXPROCS 1 and 2. Every one of
// those runs must produce the same report bytes.
func serveDrivers(b *bench, sc scenario, vals map[string]float64) error {
	lc := sc.loopConfig()
	var rep *serve.Report
	v, err := sample(func() (float64, error) {
		d, err := b.phase("serve loop", func() (err error) {
			rep, _, err = serveRun(b, "serve loop", lc)
			return err
		})
		return float64(d.Nanoseconds()) / float64(lc.Requests), err
	})
	if err != nil {
		return err
	}
	vals["serve.loop_ns_per_req"] = v
	for name, n := range loopCounts(rep) {
		vals[name] = n
	}

	vc := sc.verifyConfig()
	table := vc
	table.FullFidelity = false
	dTable, err := b.phase("verify table-only", func() error {
		_, _, err := serveRun(b, "verify", table)
		return err
	})
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	// The verification cost is read off the sharded run at the
	// benchmark's own GOMAXPROCS, the engine the workload runs on.
	configured := min(prev, 2)
	var dFull time.Duration
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		seq, sharded := vc, vc
		seq.SeqSim = true
		sharded.Shards = procs
		var reps [2]*serve.Report
		var ds [2]time.Duration
		for i, engine := range []string{"seq", "sharded"} {
			c := []serve.Config{seq, sharded}[i]
			ds[i], err = b.phase(fmt.Sprintf("verify p%d %s", procs, engine), func() (err error) {
				reps[i], _, err = serveRun(b, "verify", c)
				return err
			})
			if err != nil {
				return err
			}
		}
		vals[fmt.Sprintf("serve.seq_over_sharded_p%d", procs)] = ds[0].Seconds() / ds[1].Seconds()
		if procs == configured {
			dFull, rep = ds[1], reps[1]
		}
	}
	if rep.Batches > 0 {
		vals["serve.verify_ms_per_batch"] = ms(dFull-dTable) / float64(rep.Batches)
	}
	return nil
}

// loopCounts are the serving loop's schedule and outcome counters.
func loopCounts(r *serve.Report) map[string]float64 {
	c := map[string]float64{
		"serve.epochs":           float64(r.Epochs),
		"serve.barriers":         float64(r.Barriers),
		"serve.window_admits":    float64(r.WindowAdmits),
		"serve.rerouted":         float64(r.Rerouted),
		"serve.shed_rejected":    float64(r.ShedRejected),
		"serve.shed_expired":     float64(r.ShedExpired),
		"serve.shed_rerouted":    float64(r.ShedRerouted),
		"serve.shed_exhausted":   float64(r.ShedExhausted),
		"serve.shed_global":      float64(r.ShedGlobal),
		"serve.router_overrides": 0,
		"serve.scale_ups":        0,
		"serve.scale_downs":      0,
	}
	if f := r.Fleet; f != nil {
		c["serve.router_overrides"] = float64(f.RouterOverrides)
		c["serve.scale_ups"] = float64(f.ScaleUps)
		c["serve.scale_downs"] = float64(f.ScaleDowns)
	}
	return c
}

// kernelShare estimates the share of a sequential calibration's wall
// time spent in feature and image arithmetic: the pixels calibration
// feeds each kernel (the reference and single-SPE runs plus every grid
// point's k images, per geometry, and each distinct image set
// synthesized once) times the kernels' measured ns per pixel.
func kernelShare(base serve.Config, vals map[string]float64, calibrate time.Duration) float64 {
	perPx := vals["features.ch_ns_per_px"] + vals["features.cc_ns_per_px"] +
		vals["features.tx_ns_per_px"] + vals["features.eh_ns_per_px"]
	var ns float64
	for _, h := range frameHeights(base) {
		px := float64(base.Frame.W * h)
		sumK := float64(base.MaxBatch * (base.MaxBatch + 1) / 2)
		extracted := 2 + 2*sumK // reference + single-SPE + both schemes' batches
		ns += extracted*px*perPx + sumK*px*vals["img.synth_ns_per_px"]
	}
	return ns / float64(calibrate.Nanoseconds())
}
