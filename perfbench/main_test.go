package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSmoke runs the benchmark command at tiny input sizes and returns its
// parsed last line.
func runSmoke(t *testing.T, workload string, trace string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", trace, "--smoke", "--spans-dir", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s --trace %s exited %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkNames(t *testing.T, workload string, defs []metricDef, got map[string]metricOut, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, m.Unit, d.unit)
		case nonZero && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s reads 0", workload, d.name)
		}
	}
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkNames(t, w.name, endToEnd, runSmoke(t, w.name, "0").Metrics, true)
			checkNames(t, w.name, perLayer, runSmoke(t, w.name, "1").Metrics, false)
		})
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "soak-256", "--seconds", "0.01", "--trace", "1", "--smoke", "--spans-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	b, err := os.ReadFile(filepath.Join(dir, "soak-256.spans.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cloudsim.run", "workload.next", "obs.sink_write", "placement.PlaceSparse", "eventsim.Step"} {
		if !bytes.Contains(b, []byte("\t"+name+"\t")) {
			t.Errorf("span file has no %s span", name)
		}
	}
}

// TestDigestGate checks the determinism gate on real passes: repeats and
// traced passes of one seed agree, and a corrupted digest is refused.
func TestDigestGate(t *testing.T) {
	for _, w := range []string{"soak-256", "paper-migrate"} {
		bw, _ := findWorkload(w)
		a, err := runOnce(bw, 5, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOnce(bw, 5, true, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDigests([]*pass{a, b}); err != nil {
			t.Fatalf("%s: traced and untraced passes of one seed differ: %v", w, err)
		}
		corrupt := *b
		corrupt.digest = "0" + b.digest[1:]
		if corrupt.digest == b.digest {
			corrupt.digest = "1" + b.digest[1:]
		}
		if checkDigests([]*pass{a, &corrupt}) == nil {
			t.Fatalf("%s: a corrupted digest passed the correctness gate", w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestLatencyHistPercentiles checks that percentiles read from the
// histogram are within one bucket (0.5%) of the exact order statistics.
func TestLatencyHistPercentiles(t *testing.T) {
	h := newLatencyHist()
	for i := 1; i <= 1000; i++ {
		h.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{1, 10}, {50, 500}, {90, 900}, {99, 990}, {100, 1000}} {
		if got := h.percentile(c.p); got < c.want/histRatio || got > c.want*histRatio {
			t.Errorf("p%v = %v, want %v within one bucket", c.p, got, c.want)
		}
	}
	if got := newLatencyHist().percentile(50); got != 0 {
		t.Errorf("empty histogram: p50 = %v, want 0", got)
	}
}
