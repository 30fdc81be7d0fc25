//go:build race

package mfc

// raceEnabled reports whether the test binary was built with -race. The
// race runtime allocates on its own, so allocation counts taken under it
// do not describe the MFC.
const raceEnabled = true
