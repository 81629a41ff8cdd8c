//go:build race

package store_test

// raceEnabled reports a build under the race detector, which multiplies the
// cost of signing and verifying: a test that only counts bytes over
// thousands of blocks skips there.
const raceEnabled = true
