package cell

import (
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// machineBuildBudget bounds the objects a default New(cfg).Release()
// allocates when no released machine of its shape is in the pool. A build
// makes the machine, its engine, bus and main memory, and for each SPE
// one struct holding its MFC, mailboxes and wait queues by value, plus
// its local store; no queue or lane name is formatted.
const machineBuildBudget = 120

// TestMachineBuildAllocBudget holds a default build of new parts under
// its allocation budget and, over it, names the allocating sites. The
// machine pool is emptied before each build, with the dropped machines'
// memories returned to internal/backing, so the build takes its arrays
// from there as every first run of a shape does.
func TestMachineBuildAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	build := func() {
		emptyPool()
		New(cfg).Release()
	}
	build() // fill the backing pool
	n := testing.AllocsPerRun(100, build)
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts not compared")
	}
	if n >= machineBuildBudget {
		t.Fatalf("a default machine build allocates %v objects, budget %d; objects per build by site:\n%s",
			n, machineBuildBudget, allocSites(build, 100))
	}
}

// allocSites runs build n times with every allocation profiled and lists
// the allocating functions with their objects per build, most first.
// Sites under a quarter of an object per build (the profiling itself,
// lazily built runtime state) are left out.
func allocSites(build func(), n int) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := siteObjects()
	for i := 0; i < n; i++ {
		build()
	}
	type site struct {
		name    string
		objects int64
	}
	var sites []site
	for name, objects := range siteObjects() {
		if d := objects - before[name]; 4*d >= int64(n) {
			sites = append(sites, site{name, d})
		}
	}
	slices.SortFunc(sites, func(a, b site) int {
		return cmp.Or(cmp.Compare(b.objects, a.objects), strings.Compare(a.name, b.name))
	})
	var sb strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&sb, "%8.2f %s\n", float64(s.objects)/float64(n), s.name)
	}
	return sb.String()
}

// siteObjects returns the objects allocated so far by each allocating
// function: the first frame of a profiled stack outside the runtime and
// the standard library's internal packages.
func siteObjects() map[string]int64 {
	runtime.GC() // a profile is published after the sweep of the next cycle
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	objects := make(map[string]int64)
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/") || !more {
				objects[fmt.Sprintf("%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)] += r.AllocObjects
				break
			}
		}
	}
	return objects
}
