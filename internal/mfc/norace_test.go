//go:build !race

package mfc

const raceEnabled = false
