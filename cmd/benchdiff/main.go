// Command benchdiff compares two paperbench JSON sidecars — a committed
// baseline and a freshly generated run:
//
//	benchdiff bench/BENCH_serve.json fresh/BENCH_serve.json
//
// The config section is ignored (it records host facts like GOMAXPROCS).
// Experiment data is compared exactly and any divergence is printed as a
// per-path diff, but only a wall-clock regression fails the comparison:
// the new run must not exceed -factor (default 2×) times the baseline's
// wall time, with an absolute -floor (default 100 ms) below which noise
// is never a regression. Data divergence means the committed baseline is
// stale — regenerate it with `paperbench -bench-refresh` — and -strict
// turns that into a failure too.
//
// A side that does not exist on disk (a baseline not yet committed, or a
// fresh run that was never produced) is reported as a missing baseline
// and treated like data divergence: informational by default, a failure
// under -strict. A file that exists but does not parse is still a hard
// usage error (exit 2) — a truncated artifact must never look like a
// clean pass.
//
// Keys prefixed measured_ record host wall-clock facts (executor wall
// times, worker counts, speedup errors from `paperbench -exp race`) and
// are skipped during data comparison, like the per-experiment wall_ms:
// they legitimately differ between machines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"reflect"
	"sort"
	"strings"
)

type entry struct {
	WallMS float64 `json:"wall_ms"`
	Data   any     `json:"data"`
}

type doc struct {
	TotalWallMS float64          `json:"total_wall_ms"`
	Experiments map[string]entry `json:"experiments"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func load(path string) (*doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Experiments == nil {
		return nil, fmt.Errorf("%s: no experiments section", path)
	}
	return &d, nil
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	strict := fs.Bool("strict", false, "fail on experiment-data divergence too, not just wall-clock regressions")
	factor := fs.Float64("factor", 2, "fail when new wall time exceeds this multiple of the baseline")
	floor := fs.Float64("floor", 100, "never fail on wall-time growth below this many milliseconds")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errw, "usage: benchdiff [-strict] [-factor F] [-floor MS] baseline.json new.json")
		return 2
	}
	base, berr := load(fs.Arg(0))
	fresh, ferr := load(fs.Arg(1))
	// A side that simply isn't there is a staleness condition, not a
	// crash: report every absent file, then gate on -strict. Any other
	// load error (unreadable, malformed JSON, no experiments section)
	// stays a hard usage error.
	missing := 0
	for _, side := range []struct {
		err  error
		path string
	}{{berr, fs.Arg(0)}, {ferr, fs.Arg(1)}} {
		if errors.Is(side.err, iofs.ErrNotExist) {
			missing++
			fmt.Fprintf(out, "MISS %s: missing baseline\n", side.path)
		}
	}
	if missing > 0 {
		fmt.Fprintf(out, "benchdiff: %d missing baseline file(s) — regenerate with `paperbench -bench-refresh`\n", missing)
		if *strict {
			return 1
		}
		return 0
	}
	for _, err := range []error{berr, ferr} {
		if err != nil {
			fmt.Fprintf(errw, "benchdiff: %v\n", err)
			return 2
		}
	}

	names := map[string]bool{}
	for n := range base.Experiments {
		names[n] = true
	}
	for n := range fresh.Experiments {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	dataDiffs, regressions := 0, 0
	for _, name := range sorted {
		b, okB := base.Experiments[name]
		f, okF := fresh.Experiments[name]
		switch {
		case !okB:
			dataDiffs++
			fmt.Fprintf(out, "DATA %s: only in %s\n", name, fs.Arg(1))
			continue
		case !okF:
			dataDiffs++
			fmt.Fprintf(out, "DATA %s: only in %s\n", name, fs.Arg(0))
			continue
		}
		bd, fd := stripMeasured(b.Data), stripMeasured(f.Data)
		if !reflect.DeepEqual(bd, fd) {
			dataDiffs++
			diffAny(out, name, bd, fd)
		}
		if grow := f.WallMS - b.WallMS; f.WallMS > *factor*b.WallMS && grow > *floor {
			regressions++
			fmt.Fprintf(out, "WALL %s: %.1f ms -> %.1f ms (%.2fx, threshold %.1fx)\n",
				name, b.WallMS, f.WallMS, f.WallMS/b.WallMS, *factor)
		} else {
			fmt.Fprintf(out, "ok   %s: %.1f ms -> %.1f ms\n", name, b.WallMS, f.WallMS)
		}
	}

	switch {
	case regressions > 0:
		fmt.Fprintf(out, "benchdiff: FAIL — %d wall-clock regression(s), %d data divergence(s)\n", regressions, dataDiffs)
		return 1
	case dataDiffs > 0:
		fmt.Fprintf(out, "benchdiff: %d data divergence(s) — committed baseline is stale, run `paperbench -bench-refresh`\n", dataDiffs)
		if *strict {
			return 1
		}
		return 0
	default:
		fmt.Fprintln(out, "benchdiff: OK — data identical, wall times within threshold")
		return 0
	}
}

// measuredPrefix marks JSON keys that record host wall-clock facts
// (the race experiment's measured_* fields). They vary machine to
// machine by design, so they are invisible to the data comparison.
const measuredPrefix = "measured_"

// stripMeasured returns v with every measured_-prefixed map key
// removed, recursively.
func stripMeasured(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			if strings.HasPrefix(k, measuredPrefix) {
				continue
			}
			out[k] = stripMeasured(val)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i := range x {
			out[i] = stripMeasured(x[i])
		}
		return out
	default:
		return v
	}
}

// diffAny prints the leaf-level differences between two decoded JSON
// values, one line per diverging path, capped to keep CI logs readable.
func diffAny(out io.Writer, path string, a, b any) {
	const cap = 50
	n := 0
	var walk func(p string, a, b any)
	emit := func(p string, a, b any) {
		if n >= cap {
			return
		}
		n++
		if n == cap {
			fmt.Fprintf(out, "DATA %s: ... (more differences elided)\n", path)
			return
		}
		fmt.Fprintf(out, "DATA %s: %v != %v\n", p, compact(a), compact(b))
	}
	walk = func(p string, a, b any) {
		if n >= cap {
			return
		}
		am, aIsMap := a.(map[string]any)
		bm, bIsMap := b.(map[string]any)
		if aIsMap && bIsMap {
			keys := map[string]bool{}
			for k := range am {
				keys[k] = true
			}
			for k := range bm {
				keys[k] = true
			}
			sk := make([]string, 0, len(keys))
			for k := range keys {
				sk = append(sk, k)
			}
			sort.Strings(sk)
			for _, k := range sk {
				av, aOK := am[k]
				bv, bOK := bm[k]
				switch {
				case !aOK:
					emit(p+"."+k, "(absent)", bv)
				case !bOK:
					emit(p+"."+k, av, "(absent)")
				default:
					walk(p+"."+k, av, bv)
				}
			}
			return
		}
		as, aIsSlice := a.([]any)
		bs, bIsSlice := b.([]any)
		if aIsSlice && bIsSlice {
			if len(as) != len(bs) {
				emit(p, fmt.Sprintf("len %d", len(as)), fmt.Sprintf("len %d", len(bs)))
				return
			}
			for i := range as {
				walk(fmt.Sprintf("%s[%d]", p, i), as[i], bs[i])
			}
			return
		}
		if !reflect.DeepEqual(a, b) {
			emit(p, a, b)
		}
	}
	walk(path, a, b)
}

// compact renders a leaf value tersely for diff lines.
func compact(v any) string {
	b, err := json.Marshal(v)
	if err != nil || len(b) > 120 {
		return fmt.Sprintf("%.120v", v)
	}
	return string(b)
}
