//go:build !race

package node_test

const raceEnabled = false
