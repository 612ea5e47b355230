package main

import "testing"

// TestExampleRuns runs the example end to end; any error it hits is a
// log.Fatal, which fails the test binary.
func TestExampleRuns(t *testing.T) { main() }
