//go:build !race

package spe

const raceEnabled = false
