//go:build race

package spe

// raceEnabled reports whether the test binary was built with -race. The
// race runtime allocates on the DMA path, so allocation counts taken
// under it do not describe the model.
const raceEnabled = true
