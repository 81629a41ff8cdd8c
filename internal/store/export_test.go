package store

import "testing"

// SetSegmentSize lowers the WAL rotation threshold for the rest of a test,
// so that a few blocks spread over several segments; the test's cleanup
// restores it. The store's tests run one at a time, so no Open overlaps.
func SetSegmentSize(t testing.TB, n int64) {
	t.Helper()
	old := segmentSize
	segmentSize = n
	t.Cleanup(func() { segmentSize = old })
}
