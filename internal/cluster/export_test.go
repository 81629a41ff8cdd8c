package cluster

// PullFrom is pullFrom for the package's external tests.
var PullFrom = pullFrom
