package cell

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/mfc"
	"cellport/internal/sim"
	"cellport/internal/spe"
	"cellport/internal/trace"
)

// dmaGolden is everything a DMA-heavy machine run exposes: the engine's
// dispatch count and end time, each MFC's counters, the bus totals, the
// bytes the SPEs wrote to main memory and the recorded trace.
type dmaGolden struct {
	events     uint64
	end        sim.Time
	stats      [3]mfc.Stats
	bytesMoved float64
	transfers  uint64
	reallocs   [3]uint64 // total, closed-form, full waterfill
	memory     string    // SHA-256 of the SPE output regions
	spans      string    // SHA-256 of every span and instant
}

// TestGoldenDMA pins the MFC and EIB DMA paths on one 3-SPE bus:
//   - SPE0 streams four 4 KB blocks through two double-buffered tags,
//     fetching even blocks with Get and odd ones with a reversed 4-element
//     GetList, and writing them back with Put and PutList;
//   - SPE1 round-trips 1 KB three times; its second DMA command (the first
//     Put) is delivered corrupted by an injected dma-corrupt;
//   - SPE2 issues a 16 KB Get and then a GetList and is crashed at 105 ns,
//     while the Get's transfer is on the bus (it started at 100 ns) and
//     the list's startup timer is still pending (it fires at 110 ns).
func TestGoldenDMA(t *testing.T) {
	const (
		blk    = 4096
		blocks = 4
		piece  = 1024
	)
	cfg := DefaultConfig()
	cfg.NumSPEs = 3
	cfg.MemorySize = 1 << 20
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	m := New(cfg)
	plan, err := fault.Parse("dma-corrupt:spe=1,n=2;crash:spe=2,at=105ns")
	if err != nil {
		t.Fatal(err)
	}
	m.InjectFaults(fault.NewInjector(m.Engine, plan, cfg.NumSPEs))

	in0 := m.Memory.MustAlloc(blocks*blk, 128)
	out0 := m.Memory.MustAlloc(blocks*blk, 128)
	in1 := m.Memory.MustAlloc(piece, 128)
	out1 := m.Memory.MustAlloc(3*piece, 128)
	in2 := m.Memory.MustAlloc(mfc.MaxTransfer+blk, 128)
	src := m.Memory.Bytes(in0, blocks*blk)
	for i := range src {
		src[i] = byte(i*7 + i>>8)
	}
	src = m.Memory.Bytes(in1, piece)
	for i := range src {
		src[i] = byte(255 - i)
	}

	// scatter lists block i of base as four 1 KB pieces in reverse order.
	scatter := func(base mainmem.Addr, i int) []mfc.ListElement {
		list := make([]mfc.ListElement, 0, blk/piece)
		for j := blk/piece - 1; j >= 0; j-- {
			list = append(list, mfc.ListElement{EA: base + mainmem.Addr(i*blk+j*piece), Size: piece})
		}
		return list
	}
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	stream := spe.Program{Name: "stream", CodeBytes: 4096, Main: func(ctx *spe.Context) {
		bufs := [2]ls.Addr{ctx.Store().MustAlloc(blk, 128), ctx.Store().MustAlloc(blk, 128)}
		fetch := func(i int) {
			tag := i & 1
			if i%2 == 0 {
				check(ctx.Get(bufs[tag], in0+mainmem.Addr(i*blk), blk, tag))
			} else {
				check(ctx.GetList(bufs[tag], scatter(in0, i), tag))
			}
		}
		fetch(0)
		for i := 0; i < blocks; i++ {
			tag := i & 1
			if i+1 < blocks {
				fetch(i + 1)
			}
			ctx.WaitTag(tag)
			b := ctx.Store().Bytes(bufs[tag], blk)
			for k := range b {
				b[k] = b[k]*3 + 1
			}
			ctx.ComputeSIMD(blk, 8, 1, "xform")
			if i%2 == 0 {
				check(ctx.Put(bufs[tag], out0+mainmem.Addr(i*blk), blk, tag))
			} else {
				check(ctx.PutList(bufs[tag], scatter(out0, i), tag))
			}
		}
		ctx.WaitAllDMA()
	}}
	var corrupted []bool
	roundTrip := spe.Program{Name: "round-trip", CodeBytes: 4096, Main: func(ctx *spe.Context) {
		buf := ctx.Store().MustAlloc(piece, 128)
		for r := 0; r < 3; r++ {
			check(ctx.Get(buf, in1, piece, 2))
			ctx.WaitTag(2)
			corrupted = append(corrupted, ctx.DMAError())
			ctx.ClearDMAError()
			check(ctx.Put(buf, out1+mainmem.Addr(r*piece), piece, 3))
			ctx.WaitTag(3)
		}
	}}
	crashed := spe.Program{Name: "crashed", CodeBytes: 4096, Main: func(ctx *spe.Context) {
		big := ctx.Store().MustAlloc(mfc.MaxTransfer, 128)
		small := ctx.Store().MustAlloc(blk, 128)
		check(ctx.Get(big, in2, mfc.MaxTransfer, 0))
		check(ctx.GetList(small, scatter(in2+mfc.MaxTransfer, 0), 1))
		ctx.WaitTagMask(0b11)
		t.Error("crashed SPE resumed after its DMA")
	}}
	if _, err := m.RunMain("driver", func(ctx *Context) {
		for i, prog := range []spe.Program{stream, roundTrip, crashed} {
			check(ctx.LoadSPE(i, prog))
		}
		for i := range m.SPEs {
			ctx.WaitSPE(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !m.SPE(2).Failed() {
		t.Fatal("SPE2 was not crashed")
	}
	if want := []bool{false, true, false}; fmt.Sprint(corrupted) != fmt.Sprint(want) {
		t.Errorf("DMA error flags per round %v, want %v", corrupted, want)
	}

	mem := sha256.New()
	mem.Write(m.Memory.Bytes(out0, blocks*blk))
	mem.Write(m.Memory.Bytes(out1, 3*piece))
	spans := sha256.New()
	for _, sp := range rec.Spans() {
		fmt.Fprintf(spans, "S %s %d %d %c %s\n", sp.Lane, int64(sp.Start), int64(sp.End), sp.Kind, sp.Label)
	}
	for _, in := range rec.Instants() {
		fmt.Fprintf(spans, "I %s %d %s\n", in.Lane, int64(in.At), in.Label)
	}
	got := dmaGolden{
		events:     m.Engine.EventCount,
		end:        m.Engine.Now(),
		bytesMoved: m.Bus.BytesMoved(),
		transfers:  m.Bus.Transfers(),
		memory:     hex.EncodeToString(mem.Sum(nil)),
		spans:      hex.EncodeToString(spans.Sum(nil)),
	}
	for i, s := range m.SPEs {
		got.stats[i] = s.MFC.Stats()
	}
	got.reallocs[0], got.reallocs[1], got.reallocs[2] = m.Bus.Reallocs()
	want := dmaGolden{
		events: 81,
		end:    1786666667,
		stats: [3]mfc.Stats{
			{Commands: 8, ListCommands: 4, BytesIn: 16384, BytesOut: 16384, PeakQueue: 4},
			{Commands: 6, BytesIn: 3072, BytesOut: 3072, PeakQueue: 1},
			{Commands: 2, ListCommands: 1, PeakQueue: 2},
		},
		bytesMoved: 38954.66666666667,
		transfers:  27,
		reallocs:   [3]uint64{50, 50, 0},
		memory:     "e4a5a9288e3e8f02152de76da9d27477c2715fae975c003e685b412a062710bc",
		spans:      "f9b76a000b5b55d5e56bb82e399c7083f5a6e321c8f0bfc2a078ca07bcbd7804",
	}
	if got != want {
		t.Errorf("DMA run\n got %+v\nwant %+v", got, want)
	}
}
