package main

import "fmt"

// selfTest runs the correctness gate at tiny scale both ways: a clean
// run must pass, and a run whose Source corrupts one distance (from the
// hottest source to its nearest neighbour) must fail.
func selfTest(root string) error {
	for _, w := range []string{"serve-cold", "oracle"} {
		clean, err := execute(root, w, BaselineSeed, 2, false, true, false)
		if err != nil {
			return fmt.Errorf("selftest %s clean run: %w", w, err)
		}
		if !clean.Correct || clean.Failed != 0 {
			return fmt.Errorf("selftest %s: the clean run failed its correctness gate (%d of %d failed)", w, clean.Failed, clean.Attempted)
		}
		bad, err := execute(root, w, BaselineSeed, 2, false, true, true)
		if err != nil {
			return fmt.Errorf("selftest %s corrupted run: %w", w, err)
		}
		if bad.Correct || bad.Failed == 0 {
			return fmt.Errorf("selftest %s: a Source serving a corrupted distance passed the correctness gate", w)
		}
		fmt.Printf("selftest %s: clean run correct (%d answers), corrupted run caught (%d of %d failed)\n",
			w, clean.Attempted, bad.Failed, bad.Attempted)
	}
	return nil
}
