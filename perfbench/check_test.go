package main

import (
	"testing"
)

// TestCorruptedExpectationIsCaught: a perturbed expected answer must
// not compare equal to the true one, for every endpoint the workloads
// check.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	g := baseGraph(5)
	h := pickHotSet(g, 5)
	qs := append(append([]query(nil), h.point...), h.refresh...)
	for _, q := range qs {
		got, err := expect(g, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, _ := expect(g, q)
		if err := sameAnswer(got, want); err != nil {
			t.Fatalf("%s: two direct computations differ: %v", q, err)
		}
		if !corruptValue(want) {
			t.Fatalf("%s: nothing to corrupt", q)
		}
		if sameAnswer(got, want) == nil {
			t.Errorf("%s: corrupted expectation still matches", q)
		}
	}
}
