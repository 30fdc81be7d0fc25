package cellport_test

import (
	"fmt"
	"log"

	"cellport"
	"cellport/internal/core"
)

// dotLen is the number of floats per vector.
const dotLen = 1024

func dotKernel() cellport.KernelSpec {
	return cellport.KernelSpec{
		Name:      "dot",
		CodeBytes: 8 * 1024, // program image footprint, checked vs the 256 KB LS
		Functions: map[cellport.Opcode]cellport.KernelFunc{
			1: func(ctx *cellport.SPEContext, wrapper cellport.Addr) uint32 {
				st := ctx.Store()
				bytes := uint32(dotLen * 4)
				a := st.MustAlloc(bytes, 16)
				b := st.MustAlloc(bytes, 16)
				out := st.MustAlloc(16, 16)
				// Step 3 of §3.5: the kernel pulls its data via DMA.
				if ctx.Get(a, wrapper, bytes, 0) != nil ||
					ctx.Get(b, wrapper+cellport.Addr(bytes), bytes, 0) != nil {
					return 1
				}
				ctx.WaitTag(0)
				va := core.GetFloat32s(st.Bytes(a, bytes))
				vb := core.GetFloat32s(st.Bytes(b, bytes))
				var sum float64
				for i := range va {
					sum += float64(va[i]) * float64(vb[i])
				}
				// Charge the virtual time: 2 fp32 ops per element, 4-wide SIMD.
				ctx.ComputeSIMD(2*dotLen, 32, 0.8, "dot")
				core.PutFloat32s(st.Bytes(out, 4), []float32{float32(sum)})
				if ctx.Put(out, wrapper+cellport.Addr(2*bytes), 16, 1) != nil {
					return 1
				}
				ctx.WaitTag(1)
				return 0
			},
		},
	}
}

// Example_quickstart ports one compute kernel to a simulated SPE with the
// cellport framework, following the paper's recipe (§3.3–§3.5):
//
//  1. wrap the data the kernel needs into an aligned main-memory block,
//  2. build the kernel from the dispatcher template (Listing 1),
//  3. open an SPEInterface stub and keep the SPE idling between calls,
//  4. invoke it with SendAndWait — command word, wrapper address, result.
//
// The kernel here computes a dot product over two float32 vectors it DMAs
// from the wrapper.
func Example_quickstart() {
	cfg := cellport.DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := cellport.NewMachine(cfg)

	elapsed, err := m.RunMain("quickstart", func(ctx *cellport.PPEContext) {
		// Step 1: the data wrapper — fields padded to quadwords so every
		// field is independently DMA-able.
		w, err := cellport.NewWrapper(ctx.Memory(),
			cellport.WrapperField{Name: "a", Size: dotLen * 4},
			cellport.WrapperField{Name: "b", Size: dotLen * 4},
			cellport.WrapperField{Name: "dot", Size: 16},
		)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := w.Free(); err != nil {
				log.Fatal(err)
			}
		}()
		va, vb := make([]float32, dotLen), make([]float32, dotLen)
		for i := range va {
			va[i] = float32(i) / dotLen
			vb[i] = float32(dotLen-i) / dotLen
		}
		w.SetFloat32s("a", va)
		w.SetFloat32s("b", vb)

		// Steps 2–3: build + load the kernel; the SPE idles between calls.
		iface, err := cellport.Open(ctx, 0, dotKernel())
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := iface.Close(); err != nil {
				log.Fatal(err)
			}
		}()

		// Step 4: invoke. The same stub serves any number of calls.
		for call := 0; call < 3; call++ {
			t0 := ctx.Now()
			if res, err := iface.SendAndWait(1, w.Addr()); err != nil || res != 0 {
				log.Fatalf("kernel failed: res=%d err=%v", res, err)
			}
			fmt.Printf("call %d: dot = %.6f   round trip %v\n",
				call, w.Float32s("dot", 1)[0], ctx.Now().Sub(t0))
		}

		// Host check.
		var want float64
		for i := range va {
			want += float64(va[i]) * float64(vb[i])
		}
		fmt.Printf("host reference: %.6f\n", want)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total virtual time: %v\n", elapsed)
	// Output:
	// call 0: dot = 170.666504   round trip 950ns
	// call 1: dot = 170.666504   round trip 950ns
	// call 2: dot = 170.666504   round trip 950ns
	// host reference: 170.666504
	// total virtual time: 2.9us
}
