//go:build !race

package cell

const raceEnabled = false
