package core

// LadderQuery exposes the test-only ladder (see ladder_test.go) to the
// package's external tests, which check the shard coordinator against it.
var LadderQuery = ladderQuery
