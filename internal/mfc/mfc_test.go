package mfc

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"cellport/internal/eib"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
)

type rig struct {
	e   *sim.Engine
	bus *eib.Bus
	mem *mainmem.Memory
	st  *ls.LocalStore
	m   *MFC
}

func newRig() *rig {
	e := sim.NewEngine()
	bus := eib.New(e, eib.DefaultConfig())
	mem := mainmem.New(16 << 20)
	st := ls.New()
	m := new(MFC)
	m.Init(e, bus, mem, st, eib.SPEPort(0), LabelsFor(eib.SPEPort(0)))
	return &rig{e: e, bus: bus, mem: mem, st: st, m: m}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGetMovesBytes(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(256, 128)
	for i := range r.mem.Bytes(ea, 256) {
		r.mem.Bytes(ea, 256)[i] = byte(i)
	}
	lsa := r.st.MustAlloc(256, 16)
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, lsa, ea, 256, 3); err != nil {
			t.Error(err)
			return
		}
		if r.m.tagPending[3] != 1 {
			t.Error("tag 3 should have one pending command")
		}
		r.m.WaitTag(p, 3)
		if !bytes.Equal(r.st.Bytes(lsa, 256), r.mem.Bytes(ea, 256)) {
			t.Error("LS content differs from main memory after Get")
		}
	})
	r.run(t)
	if s := r.m.Stats(); s.BytesIn != 256 || s.Commands != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutMovesBytesAndSnapshots(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(64, 128)
	lsa := r.st.MustAlloc(64, 16)
	buf := r.st.Bytes(lsa, 64)
	for i := range buf {
		buf[i] = 0xAA
	}
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Put(p, lsa, ea, 64, 0); err != nil {
			t.Error(err)
			return
		}
		// Clobber the LS before the tag completes: the snapshot must win.
		for i := range buf {
			buf[i] = 0x55
		}
		r.m.WaitTag(p, 0)
		for _, b := range r.mem.Bytes(ea, 64) {
			if b != 0xAA {
				t.Errorf("Put delivered %#x, want snapshot value 0xAA", b)
				break
			}
		}
	})
	r.run(t)
}

func TestTransferRules(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(64*1024, 128)
	lsa := r.st.MustAlloc(64*1024, 128)
	r.e.Spawn("spu", func(p *sim.Proc) {
		cases := []struct {
			ls      ls.Addr
			ea      mainmem.Addr
			size    uint32
			wantErr string
		}{
			{lsa, ea, 0, "zero-length"},
			{lsa, ea, MaxTransfer + 16, "exceeds"},
			{lsa, ea, 3, "illegal DMA size"},
			{lsa, ea, 24, "illegal DMA size"},
			{lsa + 1, ea, 2, "natural alignment"},
			{lsa, ea + 2, 4, "natural alignment"},
			{lsa + 8, ea, 32, "quadword alignment"},
			{lsa, ea, 16, ""},
			{lsa, ea, MaxTransfer, ""},
			{lsa + 4, ea + 4, 4, ""},
			{lsa + 1, ea + 1, 1, ""},
		}
		for _, c := range cases {
			err := r.m.Get(p, c.ls, c.ea, c.size, 1)
			if c.wantErr == "" {
				if err != nil {
					t.Errorf("Get(size=%d): unexpected error %v", c.size, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Get(size=%d) error = %v, want containing %q", c.size, err, c.wantErr)
			}
		}
		r.m.WaitAll(p)
	})
	r.run(t)
}

func TestBadTagRejected(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(16, 16)
	lsa := r.st.MustAlloc(16, 16)
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, lsa, ea, 16, -1); err == nil {
			t.Error("negative tag accepted")
		}
		if err := r.m.Get(p, lsa, ea, 16, NumTags); err == nil {
			t.Error("tag 32 accepted")
		}
	})
	r.run(t)
}

func TestQueueBackpressure(t *testing.T) {
	// Issue QueueDepth+4 transfers back to back; the extras must block
	// until slots free, and all must eventually complete.
	r := newRig()
	ea := r.mem.MustAlloc(1<<20, 128)
	lsa := r.st.MustAlloc(16*1024, 128)
	n := QueueDepth + 4
	r.e.Spawn("spu", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := r.m.Get(p, lsa, ea, 1024, i%NumTags); err != nil {
				t.Error(err)
			}
		}
		r.m.WaitAll(p)
	})
	r.run(t)
	s := r.m.Stats()
	if s.Commands != uint64(n) {
		t.Fatalf("commands = %d, want %d", s.Commands, n)
	}
	if s.PeakQueue != QueueDepth {
		t.Fatalf("peak queue = %d, want %d (full backpressure)", s.PeakQueue, QueueDepth)
	}
}

func TestWaitTagMaskSelective(t *testing.T) {
	r := newRig()
	ea := r.mem.MustAlloc(1<<20, 128)
	a := r.st.MustAlloc(4096, 16)
	b := r.st.MustAlloc(4096, 16)
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.Get(p, a, ea, 4096, 1); err != nil {
			t.Error(err)
		}
		if err := r.m.Get(p, b, ea+8192, 4096, 2); err != nil {
			t.Error(err)
		}
		r.m.WaitTagMask(p, 1<<1) // only tag 1
		if r.m.tagPending[1] != 0 {
			t.Error("tag 1 should be complete")
		}
		r.m.WaitAll(p)
		if r.m.tagPending[2] != 0 {
			t.Error("tag 2 should be complete after WaitAll")
		}
	})
	r.run(t)
}

func TestGetListGathers(t *testing.T) {
	r := newRig()
	// Three scattered main-memory runs gathered into contiguous LS.
	sizes := []uint32{64, 128, 32}
	var eas []mainmem.Addr
	var want []byte
	for i, sz := range sizes {
		ea := r.mem.MustAlloc(sz, 128)
		buf := r.mem.Bytes(ea, sz)
		for j := range buf {
			buf[j] = byte(i*50 + j)
		}
		want = append(want, buf...)
		eas = append(eas, ea)
	}
	lsa := r.st.MustAlloc(224, 16)
	r.e.Spawn("spu", func(p *sim.Proc) {
		list := []ListElement{{eas[0], 64}, {eas[1], 128}, {eas[2], 32}}
		if err := r.m.GetList(p, lsa, list, 5); err != nil {
			t.Error(err)
			return
		}
		r.m.WaitTag(p, 5)
		if !bytes.Equal(r.st.Bytes(lsa, 224), want) {
			t.Error("gathered bytes mismatch")
		}
	})
	r.run(t)
	if s := r.m.Stats(); s.ListCommands != 1 || s.Commands != 1 {
		t.Fatalf("stats = %+v, want one list command", s)
	}
}

func TestPutListScatters(t *testing.T) {
	r := newRig()
	lsa := r.st.MustAlloc(96, 16)
	src := r.st.Bytes(lsa, 96)
	for i := range src {
		src[i] = byte(200 - i)
	}
	ea1 := r.mem.MustAlloc(32, 128)
	ea2 := r.mem.MustAlloc(64, 128)
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.PutList(p, lsa, []ListElement{{ea1, 32}, {ea2, 64}}, 7); err != nil {
			t.Error(err)
			return
		}
		r.m.WaitTag(p, 7)
		if !bytes.Equal(r.mem.Bytes(ea1, 32), src[:32]) || !bytes.Equal(r.mem.Bytes(ea2, 64), src[32:]) {
			t.Error("scattered bytes mismatch")
		}
	})
	r.run(t)
}

func TestListValidation(t *testing.T) {
	r := newRig()
	lsa := r.st.MustAlloc(1024, 16)
	ea := r.mem.MustAlloc(1024, 128)
	r.e.Spawn("spu", func(p *sim.Proc) {
		if err := r.m.GetList(p, lsa, nil, 0); err == nil {
			t.Error("empty list accepted")
		}
		big := make([]ListElement, MaxListElements+1)
		for i := range big {
			big[i] = ListElement{ea, 16}
		}
		if err := r.m.GetList(p, lsa, big, 0); err == nil {
			t.Error("oversized list accepted")
		}
		// Element 1 misaligned because element 0 advances LS cursor by 8.
		err := r.m.GetList(p, lsa, []ListElement{{ea, 8}, {ea + 16, 32}}, 0)
		if err == nil || !strings.Contains(err.Error(), "element 1") {
			t.Errorf("misaligned list error = %v", err)
		}
	})
	r.run(t)
}

func TestDoubleBufferingOverlapsTransfers(t *testing.T) {
	// Classic §4.1 multibuffering: with two buffers and two tags, compute
	// on buffer A while buffer B is in flight. Total time must be well
	// under the serial sum (N × (dma + compute)).
	const (
		pieces  = 16
		size    = 16 * 1024
		compute = 5 * sim.Microsecond
	)
	serialDMA := func() sim.Duration {
		r := newRig()
		ea := r.mem.MustAlloc(pieces*size, 128)
		lsa := r.st.MustAlloc(size, 128)
		var total sim.Duration
		r.e.Spawn("spu", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < pieces; i++ {
				if err := r.m.Get(p, lsa, ea+mainmem.Addr(i*size), size, 0); err != nil {
					t.Error(err)
				}
				r.m.WaitTag(p, 0)
				p.Sleep(compute)
			}
			total = p.Now().Sub(start)
		})
		r.run(t)
		return total
	}()
	doubleBuffered := func() sim.Duration {
		r := newRig()
		ea := r.mem.MustAlloc(pieces*size, 128)
		bufs := [2]ls.Addr{r.st.MustAlloc(size, 128), r.st.MustAlloc(size, 128)}
		var total sim.Duration
		r.e.Spawn("spu", func(p *sim.Proc) {
			start := p.Now()
			if err := r.m.Get(p, bufs[0], ea, size, 0); err != nil {
				t.Error(err)
			}
			for i := 0; i < pieces; i++ {
				cur := i % 2
				if i+1 < pieces {
					if err := r.m.Get(p, bufs[1-cur], ea+mainmem.Addr((i+1)*size), size, (i+1)%2); err != nil {
						t.Error(err)
					}
				}
				r.m.WaitTag(p, cur)
				p.Sleep(compute)
			}
			total = p.Now().Sub(start)
		})
		r.run(t)
		return total
	}()
	if doubleBuffered >= serialDMA {
		t.Fatalf("double buffering (%v) not faster than serial (%v)", doubleBuffered, serialDMA)
	}
}

// Property: Get/Put round-trips preserve arbitrary data for all legal
// multiple-of-16 sizes.
func TestPropRoundTrip(t *testing.T) {
	f := func(data []byte, seed uint8) bool {
		n := uint32(len(data)) &^ 15
		if n == 0 || n > MaxTransfer {
			return true // vacuous
		}
		r := newRig()
		src := r.mem.MustAlloc(n, 128)
		dst := r.mem.MustAlloc(n, 128)
		copy(r.mem.Bytes(src, n), data)
		lsa := r.st.MustAlloc(n, 16)
		ok := true
		r.e.Spawn("spu", func(p *sim.Proc) {
			if err := r.m.Get(p, lsa, src, n, 1); err != nil {
				ok = false
				return
			}
			r.m.WaitTag(p, 1)
			if err := r.m.Put(p, lsa, dst, n, 2); err != nil {
				ok = false
				return
			}
			r.m.WaitTag(p, 2)
		})
		if err := r.e.Run(); err != nil {
			return false
		}
		return ok && bytes.Equal(r.mem.Bytes(src, n), r.mem.Bytes(dst, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
