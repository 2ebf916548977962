package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
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

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestOpDigestIsSeeded(t *testing.T) {
	for name := range workloads {
		a, b := opDigest(name, 7, 2000), opDigest(name, 7, 2000)
		if a != b {
			t.Errorf("%s: seed 7 gave two op lists", name)
		}
		if c := opDigest(name, 8, 2000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads: BENCHMARK.json %v, perfbench %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, perfbench %v", names, have)
		}
	}
	compare := func(kind string, spec []metricSpec, name func(int) (string, string), n int) {
		if n != len(spec) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, n, len(spec))
			return
		}
		for i, s := range spec {
			if jn, ju := name(i); jn != s.name || ju != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, jn, ju, s.name, s.unit)
			}
		}
	}
	compare("end_to_end", endToEnd, func(i int) (string, string) { return bj.EndToEnd[i].Name, bj.EndToEnd[i].Unit }, len(bj.EndToEnd))
	compare("per_layer", perLayer, func(i int) (string, string) { return bj.PerLayer[i].Name, bj.PerLayer[i].Unit }, len(bj.PerLayer))
}

// TestSmoke runs every workload briefly, plain and traced, and checks
// that the run is correct and prints exactly the listed metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and loads data")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for name, mk := range workloads {
		t.Run(name+"/plain", func(t *testing.T) {
			res, err := runPlain(mk, 5, time.Second, t.TempDir())
			checkResult(t, res, err, endToEnd)
		})
		t.Run(name+"/traced", func(t *testing.T) {
			res, err := runTraced(name, mk, 5, 1500*time.Millisecond, t.TempDir())
			checkResult(t, res, err, perLayer)
		})
	}
}

func checkResult(t *testing.T, res *result, err error, want []metricSpec) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
	}
	for _, s := range want {
		if v, ok := res.Metrics[s.name]; !ok || v.Unit != s.unit {
			t.Errorf("metric %s: got %+v", s.name, v)
		}
	}
}
