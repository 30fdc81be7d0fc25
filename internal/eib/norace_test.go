//go:build !race

package eib

const raceEnabled = false
