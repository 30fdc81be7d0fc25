//go:build race

package cell

// raceEnabled reports whether the test binary was built with -race. The
// race runtime allocates on its own, so allocation counts taken under it
// do not describe the machine.
const raceEnabled = true
