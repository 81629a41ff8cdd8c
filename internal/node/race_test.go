//go:build race

package node_test

// raceEnabled reports a build under the race detector, which multiplies the
// cost of signing and verifying: a test that only counts reads and
// allocations over thousands of blocks skips there.
const raceEnabled = true
