package main

import (
	"reflect"
	"testing"

	"repro/internal/ingest"
)

func TestInputsAreDeterminedBySeed(t *testing.T) {
	a, b, c := baseGraph(7), baseGraph(7), baseGraph(8)
	if err := sameGraph(a, b); err != nil {
		t.Fatalf("same seed, different graphs: %v", err)
	}
	if sameGraph(a, c) == nil {
		t.Fatal("seeds 7 and 8 gave the same graph")
	}
	ha, hb := pickHotSet(a, 7), pickHotSet(b, 7)
	if !reflect.DeepEqual(ha, hb) {
		t.Fatal("same seed, different hot sets")
	}
	if !reflect.DeepEqual(sequence(ha.mix(), 500, 3), sequence(hb.mix(), 500, 3)) {
		t.Fatal("same seed, different request sequences")
	}
	ga, gb := newBatchGen(a, 5, 4), newBatchGen(b, 5, 4)
	if !reflect.DeepEqual(ga.take(30, 16), gb.take(30, 16)) {
		t.Fatal("same seed, different write batches")
	}
}

func TestSequenceKeepsExactProportions(t *testing.T) {
	h := pickHotSet(baseGraph(3), 3)
	seq := sequence(h.mix(), 1000, 9)
	n := 0
	for _, q := range seq {
		if q.endpoint == "bfs" {
			n++
		}
	}
	if len(seq) != 1000 || n != 20 {
		t.Errorf("%d requests with %d /bfs, want 1000 with 20", len(seq), n)
	}
}

// TestBatchesNeverTouchBaseArcsOrMarkers: removals take back only the
// benchmark's own non-marker adds, so the hot set stays active and a
// marker, once folded in, stays in every later graph.
func TestBatchesNeverTouchBaseArcsOrMarkers(t *testing.T) {
	g := baseGraph(4)
	base := newBatchGen(g, 1, 0).present
	gen := newBatchGen(g, 2, 3)
	markers := map[arcKey]bool{}
	for _, b := range gen.take(200, 9) {
		if len(b.events) != 9 {
			t.Fatalf("batch of %d events, want 9", len(b.events))
		}
		markers[b.marker] = true
		for _, e := range b.events {
			a := arcKey{e.U, e.V, e.T}
			if e.Op == ingest.RemoveArc && (base[a] || markers[a]) {
				t.Fatalf("batch removes %+v, a base arc or a marker", a)
			}
		}
	}
}
