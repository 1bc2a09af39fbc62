package main

import "testing"

// TestSelfTest runs the benchmark's self-test from the checkout root.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tiny serving workloads for a few seconds")
	}
	if err := selfTest(".."); err != nil {
		t.Fatal(err)
	}
}
