package fault

import (
	"reflect"
	"testing"

	"cellport/internal/sim"
)

func TestParseStringRoundTrip(t *testing.T) {
	spec := "crash:spe=1,at=2ms;dma-drop:spe=0,n=3;dma-corrupt:spe=2,n=1;" +
		"mbox-stall:spe=3,n=2,delay=500us;ls-overflow:spe=0,n=1"
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Fault{
		{Kind: CrashSPE, SPE: 1, At: sim.Time(2 * sim.Millisecond)},
		{Kind: DMADrop, SPE: 0, Nth: 3},
		{Kind: DMACorrupt, SPE: 2, Nth: 1},
		{Kind: MboxStall, SPE: 3, Nth: 2, Delay: 500 * sim.Microsecond},
		{Kind: LSOverflow, SPE: 0, Nth: 1},
	}
	if !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("Parse = %+v, want %+v", p.Faults, want)
	}
	// String must render back into the same plan.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("Parse(String): %v", err)
	}
	if !reflect.DeepEqual(p2, p) {
		t.Errorf("round trip: %q != %q", p2, p)
	}
}

func TestParseDurations(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Duration
	}{
		{"750ns", 750 * sim.Nanosecond},
		{"5us", 5 * sim.Microsecond},
		{"2ms", 2 * sim.Millisecond},
		{"1s", sim.Second},
		{"1.5ms", 1500 * sim.Microsecond},
	}
	for _, c := range cases {
		p, err := Parse("mbox-stall:spe=0,n=1,delay=" + c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := p.Faults[0].Delay; got != c.want {
			t.Errorf("delay %q = %d fs, want %d fs", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"nova:spe=0,n=1",               // unknown kind
		"crash:spe=0",                  // crash without at=
		"dma-drop:spe=0",               // count-based without n=
		"dma-drop:n=1",                 // missing spe=
		"dma-drop:spe=0,n=0",           // counts are 1-based
		"mbox-stall:spe=0,n=1",         // stall without delay=
		"mbox-stall:spe=0,n=1,delay=5", // bare duration, no suffix
		"crash:spe=-1,at=1ms",          // negative SPE
		"crash:spe=0,at=1ms,bogus=1",   // unknown key
		"crash:spe=0,at",               // not key=value
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatalf("Parse(\"\"): %v", err)
	}
	if !p.Empty() {
		t.Error("empty spec parsed non-empty")
	}
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan not Empty")
	}
	if nilPlan.String() != "" {
		t.Error("nil plan String not empty")
	}
}

func TestSeededDeterministic(t *testing.T) {
	a := Seeded(42, 8)
	b := Seeded(42, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(Seeded(42, 8), Seeded(43, 8)) {
		t.Error("different seeds produced identical plans")
	}
	// The derived plan must be expressible in (and recoverable from) the
	// spec grammar.
	back, err := Parse(a.String())
	if err != nil {
		t.Fatalf("Parse(Seeded.String): %v", err)
	}
	if !reflect.DeepEqual(back, a) {
		t.Errorf("seeded plan did not round-trip: %q vs %q", back, a)
	}
	for _, f := range a.Faults {
		if f.SPE < 0 || f.SPE >= 8 {
			t.Errorf("fault targets out-of-range SPE %d", f.SPE)
		}
	}
}

// TestInjectorOneShot: each planned fault fires at most once, at exactly
// its trigger count, and lands in the report's Injected list.
func TestInjectorOneShot(t *testing.T) {
	e := sim.NewEngine()
	p := &Plan{Faults: []Fault{
		{Kind: DMADrop, SPE: 0, Nth: 2},
		{Kind: DMACorrupt, SPE: 1, Nth: 1},
		{Kind: MboxStall, SPE: 0, Nth: 3, Delay: sim.Millisecond},
		{Kind: LSOverflow, SPE: 1, Nth: 2},
	}}
	in := NewInjector(e, p, 2)

	got := []Action{in.DMAAction(0), in.DMAAction(0), in.DMAAction(0)}
	want := []Action{ActNone, ActDrop, ActNone}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SPE0 DMA verdicts = %v, want %v", got, want)
	}
	if in.DMAAction(1) != ActCorrupt {
		t.Error("SPE1 first DMA command not corrupted")
	}
	if in.DMAAction(1) != ActNone {
		t.Error("corrupt fault fired twice")
	}

	if d := in.MboxDelay(0); d != 0 {
		t.Errorf("mbox write 1 stalled %v", d)
	}
	in.MboxDelay(0)
	if d := in.MboxDelay(0); d != sim.Millisecond {
		t.Errorf("mbox write 3 stall = %v, want 1ms", d)
	}
	if d := in.MboxDelay(0); d != 0 {
		t.Error("stall fault fired twice")
	}

	if in.AllocFault(1) {
		t.Error("alloc 1 failed, want alloc 2")
	}
	if !in.AllocFault(1) {
		t.Error("alloc 2 did not fail")
	}
	if in.AllocFault(1) {
		t.Error("overflow fault fired twice")
	}

	// Out-of-range SPEs never match.
	if in.DMAAction(-1) != ActNone || in.DMAAction(99) != ActNone {
		t.Error("out-of-range SPE matched a fault")
	}

	rep := in.Report()
	if rep.Planned != 4 || len(rep.Injected) != 4 {
		t.Fatalf("Planned=%d Injected=%d, want 4/4", rep.Planned, len(rep.Injected))
	}
	kinds := map[string]bool{}
	for _, ev := range rep.Injected {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"dma-drop", "dma-corrupt", "mbox-stall", "ls-overflow"} {
		if !kinds[k] {
			t.Errorf("report missing injected kind %q", k)
		}
	}
}

// TestInjectorNoteCrashOneShot: a crash fault is marked injected exactly
// once, matched by (SPE, At).
func TestInjectorNoteCrashOneShot(t *testing.T) {
	e := sim.NewEngine()
	f := Fault{Kind: CrashSPE, SPE: 3, At: sim.Time(2 * sim.Millisecond)}
	in := NewInjector(e, &Plan{Faults: []Fault{f}}, 8)
	if crashes := in.CrashFaults(); len(crashes) != 1 || crashes[0] != f {
		t.Fatalf("CrashFaults = %v", crashes)
	}
	in.NoteCrash(f)
	in.NoteCrash(f)
	if n := len(in.Report().Injected); n != 1 {
		t.Errorf("crash recorded %d times, want 1", n)
	}
}
