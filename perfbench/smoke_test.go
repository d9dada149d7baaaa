package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeRun is a tiny-length run: one measured second and a short
// warm-up.
func smokeRun(t *testing.T, workload string, seed int64, trace int) *record {
	t.Helper()
	rec, err := run(context.Background(), options{
		workload: workload, seed: seed, seconds: 1, trace: trace, workDir: t.TempDir(), warmup: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSmoke runs every workload traced and untraced and checks the
// output against the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for trace, metrics := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			rec := smokeRun(t, w.Name, 1, trace)
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("%s trace=%d: check failed: %s (%s)", w.Name, trace, c.Name, c.Detail)
				}
			}
			var out bytes.Buffer
			printRecord(&out, rec)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("%s trace=%d: result keys %v", w.Name, trace, res)
			}
			if !rec.Result.Correct || rec.Result.Attempted < 1 || rec.Result.Failed != 0 {
				t.Errorf("%s trace=%d: correct %v, attempted %d, failed %d", w.Name, trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
			}
			if len(rec.Result.Metrics) != len(metrics) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(rec.Result.Metrics), len(metrics))
			}
			for _, m := range metrics {
				got, ok := rec.Result.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", w.Name, trace, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !strings.Contains(out.String(), m.Name) || !strings.Contains(out.String(), " "+m.Unit+"\n"):
					t.Errorf("%s trace=%d: metric %s not printed with its unit", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestWarmupEconomyRepeats checks that the warm-up economy is a function
// of the seed alone: two invocations agree exactly.
func TestWarmupEconomyRepeats(t *testing.T) {
	for _, w := range workloads {
		a, b := smokeRun(t, w.name, 7, 0), smokeRun(t, w.name, 7, 0)
		for _, m := range []string{"cost_usd_per_kq", "resp_mean_s"} {
			if x, y := a.Result.Metrics[m].Value, b.Result.Metrics[m].Value; x != y {
				t.Errorf("%s: %s differs across invocations: %v vs %v", w.name, m, x, y)
			}
		}
	}
}
