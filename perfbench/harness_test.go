package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func toyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, toy: true}
}

// checkMetrics asserts the printed metrics are exactly the declared ones,
// with the declared units.
func checkMetrics(t *testing.T, res *result, declared map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(declared) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
	}
	for name, m := range res.Metrics {
		unit, ok := declared[name]
		if !ok {
			t.Errorf("printed metric %q is not in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %q printed with unit %q, declared %q", name, m.Unit, unit)
		}
	}
}

// TestHarnessMatchesBenchmarkJSON runs every workload at toy size, untraced
// and traced, and checks that each passes its correctness checks and prints
// exactly the metrics BENCHMARK.json declares; untraced end-to-end values
// must be non-zero.
func TestHarnessMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	var declared, known []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(declared)
	sort.Strings(known)
	if len(declared) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, harness workloads %v", declared, known)
	}
	for i := range declared {
		if declared[i] != known[i] {
			t.Fatalf("BENCHMARK.json workloads %v, harness workloads %v", declared, known)
		}
	}
	for _, name := range known {
		for _, trace := range []bool{false, true} {
			res, _, err := run(toyConfig(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				checkMetrics(t, res, layers)
				continue
			}
			checkMetrics(t, res, e2e)
			for m, v := range res.Metrics {
				if v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, m)
				}
			}
		}
	}
}

// TestCorruptedOutputFails perturbs one decrypted slot of every checked
// output and requires each workload to report the run as incorrect, with
// the corrupted operations counted as failed.
func TestCorruptedOutputFails(t *testing.T) {
	corruptOutput = func(vals []complex128) { vals[len(vals)/3] += 0.5 }
	defer func() { corruptOutput = nil }()
	for name := range workloads {
		res, _, err := run(toyConfig(name, false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted outputs passed: correct=%v attempted=%d failed=%d",
				name, res.Correct, res.Attempted, res.Failed)
		}
	}
}
