package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the smoke test runs all of them,
// traced and untraced, with every output check, in well under a minute.
var tinySizes = sizes{
	writeRate:     200,
	mixedRate:     300,
	window:        200 * time.Millisecond,
	ladderStep:    200 * time.Millisecond,
	refresh:       20 * time.Millisecond,
	setups:        2,
	trainEpisodes: 2,
}

func TestSmokeEveryWorkload(t *testing.T) {
	for name, drive := range workloads {
		for _, traced := range []bool{false, true} {
			b := &bench{
				workload: name, seed: 7, budget: 2 * time.Second, trace: traced,
				root: "..", out: t.TempDir(), sz: tinySizes, log: io.Discard,
			}
			if testing.Verbose() {
				b.log = os.Stdout
			}
			res, err := execute(b, drive)
			if err != nil {
				t.Fatalf("%s (traced=%t): %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s (traced=%t): result %+v", name, traced, res)
			}
			want := e2eCatalog
			if traced {
				want = layerCatalog
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%t): %d metrics, catalog has %d", name, traced, len(res.Metrics), len(want))
			}
			for _, c := range want {
				m, ok := res.Metrics[c.name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%t): metric %s missing", name, traced, c.name)
				case m.Unit != c.unit:
					t.Errorf("%s (traced=%t): metric %s in %s, want %s", name, traced, c.name, m.Unit, c.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, c.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's metric lists and
// the program's catalogs the same.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, tc := range []struct {
		name    string
		listed  []struct{ Name, Unit, Better string }
		catalog []catalogEntry
	}{
		{"end_to_end", spec.EndToEnd, e2eCatalog},
		{"per_layer", spec.PerLayer, layerCatalog},
	} {
		if len(tc.listed) != len(tc.catalog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalog has %d", tc.name, len(tc.listed), len(tc.catalog))
			continue
		}
		for i, m := range tc.listed {
			if c := tc.catalog[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, catalog has %+v", tc.name, i, m, c)
			}
		}
	}
}
