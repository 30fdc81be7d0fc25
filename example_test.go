package cellport_test

import (
	"fmt"
	"log"

	"cellport"
)

// Example_portKernel is the porting recipe in its shortest form: an
// aligned data wrapper, a kernel built from the Listing-1 dispatcher, the
// SPEInterface stub and one invocation. README quotes its body.
func Example_portKernel() {
	cfg := cellport.DefaultConfig()
	cfg.MemorySize = 16 << 20
	m := cellport.NewMachine(cfg)
	_, err := m.RunMain("app", func(ctx *cellport.PPEContext) {
		// 1. collect the kernel's data into an aligned wrapper (§3.3)
		w, err := cellport.NewWrapper(ctx.Memory(),
			cellport.WrapperField{Name: "in", Size: 4096},
			cellport.WrapperField{Name: "out", Size: 16})
		if err != nil {
			log.Fatal(err)
		}

		// 2. the kernel: the Listing-1 dispatcher around your functions
		spec := cellport.KernelSpec{
			Name: "mykernel", CodeBytes: 16 << 10,
			Functions: map[cellport.Opcode]cellport.KernelFunc{
				1: func(ctx *cellport.SPEContext, wrapper cellport.Addr) uint32 {
					buf := ctx.Store().MustAlloc(4096, 16)
					if ctx.Get(buf, wrapper, 4096, 0) != nil { // DMA in
						return 1
					}
					ctx.WaitTag(0)
					// ... compute on ctx.Store().Bytes(buf, 4096) ...
					ctx.ComputeSIMD(4096, 8, 0.8, "work") // charge virtual time
					return 0
				},
			},
		}

		// 3. open the SPEInterface stub; the SPE idles between calls
		iface, err := cellport.Open(ctx, 0, spec)
		if err != nil {
			log.Fatal(err)
		}

		// 4. invoke (Listing 3's mailbox protocol)
		res, err := iface.SendAndWait(1, w.Addr())
		fmt.Printf("result %d, error %v, t=%.9fs\n", res, err, ctx.Now().Seconds())
		if err := iface.Close(); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: result 0, error <nil>, t=0.000000700s
}

// ExampleEstimateSpeedUp1 is §4.2's worth-it check: once a kernel covers
// only 10% of the application, pushing it from 10x to 100x barely moves
// the application speed-up (Eq. 1).
func ExampleEstimateSpeedUp1() {
	fmt.Println("worth-it check (§4.2): pushing one kernel from 10x to 100x when it")
	fmt.Println("covers 10% of the application:")
	e10, err := cellport.EstimateSpeedUp1(cellport.EstKernel{Name: "k", Fraction: 0.1, SpeedUp: 10})
	if err != nil {
		log.Fatal(err)
	}
	e100, err := cellport.EstimateSpeedUp1(cellport.EstKernel{Name: "k", Fraction: 0.1, SpeedUp: 100})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Sapp(10x) = %.4f, Sapp(100x) = %.4f — not worth the effort\n", e10, e100)
	// Output:
	// worth-it check (§4.2): pushing one kernel from 10x to 100x when it
	// covers 10% of the application:
	//   Sapp(10x) = 1.0989, Sapp(100x) = 1.1099 — not worth the effort
}
