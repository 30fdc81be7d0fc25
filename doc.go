// Package cellport is a library-scale reproduction of "An Effective
// Strategy for Porting C++ Applications on Cell" (Varbanescu, Sips, Ross,
// Liu, Liu, Natsev, Smith — ICPP 2007).
//
// It provides, in pure Go with no dependencies beyond the standard
// library:
//
//   - a deterministic simulated Cell Broadband Engine — one PPE and eight
//     SPEs with enforced 256 KB local stores, MFC DMA queues with the
//     hardware size/alignment rules, 4-deep mailboxes, signal registers,
//     and a max-min-fair EIB bandwidth model — executing in virtual time
//     over a process-oriented discrete-event engine;
//   - the paper's porting framework: the SPEInterface stub
//     (Send / SendAndWait / Wait / Close over the mailbox protocol of
//     §3.5), the SPE-side function-dispatcher template of Listing 1, and
//     quadword-aligned data wrappers;
//   - the §4.2 Amdahl estimator (Eqs. 1–3) for sequential and
//     grouped-parallel kernel schedules;
//   - a virtual-time profiler with call-graph-based, class-bounded kernel
//     identification (§3.2);
//   - the MARVEL case study (§5): four real feature extractors, SVM
//     concept detection, the sequential reference application and its
//     Cell port in naive and optimized variants under the three §5.5
//     scheduling scenarios; and
//   - an experiment harness regenerating Table 1, Figure 6, Figure 7 and
//     the in-text numbers, with paper-vs-measured comparisons.
//
// This package is the façade over the building blocks in internal/; the
// bundled case study and experiment harness live in internal/marvel and
// internal/experiments and are exercised by the cmd/ tools.
//
// The package's Example functions are the runnable, output-checked
// documentation: Example_portKernel is the porting recipe in its shortest
// form, Example_quickstart ports a dot product step by step,
// Example_imageFilter is §3.4's sliced filter with halo rows, and
// ExampleEstimateSpeedUp1 is §4.2's worth-it check.
package cellport
