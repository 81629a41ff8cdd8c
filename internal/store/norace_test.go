//go:build !race

package store_test

const raceEnabled = false
