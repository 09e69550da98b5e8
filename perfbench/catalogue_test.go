package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRe.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRe)
		}
		if !unitRe.MatchString(unit) {
			t.Errorf("metric %s: unit %q does not match %s", name, unit, unitRe)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better is %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric %s named twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

func TestEveryLayerMetricMovesAnEndToEndMetric(t *testing.T) {
	e2e := map[string]bool{opsFailedFrac: true}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	workloads := map[string]bool{wHot: true, wCold: true, wChurn: true, wAll: true}
	for _, m := range perLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, e)
			}
		}
		if !workloads[m.Workload] {
			t.Errorf("%s names unknown workload %q", m.Name, m.Workload)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the
// runs are judged by, in step with what the program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, j, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, j, m)
		}
	}
	runs := map[string]bool{wHot: true, wCold: true, wChurn: true}
	for _, w := range b.Workloads {
		if !runs[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not run", w.Name)
		}
	}
}
