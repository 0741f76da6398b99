package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"
)

func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestMobileNetV2Layout(t *testing.T) {
	sd := mobileNetV2(rand.New(rand.NewPCG(1, 1)))
	lossy := 0
	for _, e := range sd.Entries() {
		if takesLossyPath(e) {
			lossy++
		}
	}
	// torchvision's 3,504,872 parameters plus 34,112 running statistics and
	// 52 batch counters.
	if sd.Len() != 314 || lossy != 49 || sd.NumParams() != 3_539_036 {
		t.Fatalf("got %d entries, %d lossy, %d values; want 314, 49, 3539036", sd.Len(), lossy, sd.NumParams())
	}
}

// TestBenchmarkDeclaration keeps BENCHMARK.json and the program in step.
func TestBenchmarkDeclaration(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []decl, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(got), len(want))
		}
		for _, d := range got {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %q in %q is not the program's (%q)", what, d.Name, d.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, perLayerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}
