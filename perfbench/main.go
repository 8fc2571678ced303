// Command perfbench is the repository's benchmark. It replays one named
// workload through the public APIs of the internal packages, checks the
// outputs, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload soak-256 --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// ledger that ties the layer numbers to the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "op/cpu_s"},
	{"req_p50_us", "us"},
	{"peak_live_heap_mib", "MiB"},
	{"alloc_bytes_per_op", "B/op"},
	{"sim_dc_mean", "DC"},
	{"served_frac", "ratio"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"cloudsim.self_ns_per_req", "ns/req"},
	{"cloudsim.served", "count"},
	{"cloudsim.rejected", "count"},
	{"cloudsim.unplaced", "count"},
	{"cloudsim.requeued", "count"},
	{"cloudsim.evacuations", "count"},
	{"cloudsim.failures", "count"},
	{"cloudsim.wait_p99_s", "s"},
	{"placement.place_sparse_ns", "ns"},
	{"placement.place_sparse_calls", "count"},
	{"placement.insufficient_frac", "ratio"},
	{"placement.place_batch_ns", "ns"},
	{"placement.place_batch_calls", "count"},
	{"placement.batch_size_mean", "count"},
	{"inventory.allocate_list_ns", "ns"},
	{"inventory.release_list_ns", "ns"},
	{"inventory.dense_ns", "ns"},
	{"eventsim.step_self_ns", "ns"},
	{"eventsim.events_per_req", "ratio"},
	{"obs.emit_ns", "ns"},
	{"obs.sink_write_ns", "ns"},
	{"obs.bytes_per_event", "B"},
	{"obs.events_per_req", "ratio"},
	{"workload.next_ns", "ns"},
	{"stats.observe_ns", "ns"},
	{"service.place_ns", "ns"},
	{"service.release_ns", "ns"},
	{"service.grow_ns", "ns"},
	{"service.shrink_ns", "ns"},
	{"service.pipeline_overhead_ns", "ns"},
	{"service.ops_per_batch", "ratio"},
	{"service.batches", "count"},
	{"service.queued_frac", "ratio"},
	{"service.allocs_per_op", "allocs/op"},
	{"migration.plan_ns", "ns"},
	{"migration.plan_calls", "count"},
	{"migration.useful_frac", "ratio"},
	{"migration.moves", "count"},
	{"ledger.end_to_end_ns_per_req", "ns/req"},
	{"ledger.explained_frac", "ratio"},
	{"ledger.residual_ns_per_req", "ns/req"},
	{"trace.overhead_frac", "ratio"},
}

// pass is one measured replay of a workload's inputs.
type pass struct {
	wall   time.Duration // host time of the measured replay
	cpu    time.Duration // process CPU time (user + system) over the same span
	ops    int           // replayed requests, or service calls
	failed int           // requests not served, or calls that returned an error

	lat   []float64 // per-request host latency, µs; moved into a latencyHist after the pass
	dcSum float64
	dcN   int

	peakLive, allocBytes, allocObjects uint64

	// seed is the pass's sub-seed. digest summarises the simulated
	// outputs; equal seeds must give equal digests. Empty where the
	// outputs depend on host scheduling.
	seed   int64
	digest string

	// Traced passes only.
	tr     *tracer
	counts map[string]float64 // deterministic counts read through public APIs
}

// replay is the result of a layer replay: the same generated requests
// driven straight through the layers the program calls internally.
type replay struct {
	tr     *tracer
	ops    int
	counts map[string]float64
}

// pending is a set-up pass: run measures it (recording spans with a
// non-nil tracer); drop releases it unrun.
type pending struct {
	run  func(tr *tracer) (*pass, error)
	drop func()
}

// benchWorkload is one named benchmark input.
type benchWorkload struct {
	name string
	// prepare sets up one pass of a seed's inputs: plant, inventory, tier
	// index, simulator or service, and trace materialisation or prefill.
	prepare func(seed int64, smoke bool) (*pending, error)
	// replay drives the layer replay for the traced run.
	replay func(seed int64, smoke bool) (*replay, error)
	// passes is the number of sub-seeds one round of a run replays.
	passes int
	// clients is the number of concurrent callers (1 for replays); the
	// ledger charges each op clients × wall / ops of host time.
	clients int
}

var workloads = []benchWorkload{
	{name: "soak-256", prepare: soak256, replay: soak256Replay, passes: 12, clients: 1},
	{name: "soak-2k", prepare: soak2k, replay: soak2kReplay, passes: 4, clients: 1},
	{name: "service", prepare: servicePass, replay: serviceReplay, passes: 32, clients: serviceClients},
	{name: "paper-migrate", prepare: paperPass, replay: paperReplay, passes: 48, clients: 1},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: soak-256, soak-2k, service or paper-migrate")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating passes")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny input sizes, for the benchmark's own tests")
	spansDir := fs.String("spans-dir", ".", "directory the traced run writes <workload>.spans.tsv to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (soak-256, soak-2k, service, paper-migrate), --trace 0|1 and --seconds > 0\n")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 1 {
		path := filepath.Join(*spansDir, w.name+".spans.tsv")
		res, err = measureTraced(w, *seed, *smoke, budget, path, stdout)
	} else {
		res, err = measure(w, *seed, *smoke, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// plantSeed draws every workload's plant capacities (and the service's
// prefill). The plant is fixed so that --seed varies only the workload: a
// seeded plant moved the mean DC(C) of the 256-node soak by a factor of
// two between seeds, which no run length averages away.
const plantSeed = 2012

// subSeeds derives the per-pass seeds of a run: the first n draws of a
// generator seeded with --seed. Every round of a run replays all n, so a
// run measures n independent workload draws instead of one. One draw of
// the paper-migrate trace moved its throughput by ±15% from seed to seed;
// averaging draws within a run is what keeps the run-to-run spread small.
func subSeeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

// runOnce sets up and runs one pass.
func runOnce(w benchWorkload, seed int64, smoke bool, tr *tracer) (*pass, error) {
	pend, err := w.prepare(seed, smoke)
	if err != nil {
		return nil, err
	}
	p, err := pend.run(tr)
	if p != nil {
		p.seed = seed
	}
	return p, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes sets up (and drops) one pass per seed, back to back before
// anything runs, so every set-up starts from the same small heap instead
// of racing the collection of the previous pass's garbage; soak-2k's
// set-up moved between 26 and 57 ms when timed between passes.
func setupTimes(w benchWorkload, seeds []int64, smoke bool) ([]float64, error) {
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		t0 := time.Now()
		pend, err := w.prepare(s, smoke)
		if err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
		pend.drop()
	}
	return out, nil
}

// measure times one set-up per sub-seed, runs one discarded warm-up pass,
// then rounds of untraced passes (one per sub-seed) while another round
// fits the budget, at least one. It reports the end-to-end metrics over
// the measured passes.
func measure(w benchWorkload, seed int64, smoke bool, budget time.Duration, out io.Writer) (*result, error) {
	seeds := subSeeds(seed, w.passes)
	setups, err := setupTimes(w, seeds, smoke)
	if err != nil {
		return failedResult(nil), err
	}
	warm, err := runOnce(w, seeds[0], smoke, nil)
	if err != nil {
		return failedResult(nil), err
	}
	var measured []*pass
	lat := newLatencyHist()
	start := time.Now()
	for rounds := time.Duration(0); ; rounds++ {
		if elapsed := time.Since(start); rounds > 0 && elapsed+elapsed/rounds > budget {
			break
		}
		for _, s := range seeds {
			p, err := runOnce(w, s, smoke, nil)
			if err != nil {
				return failedResult(measured), err
			}
			for _, us := range p.lat {
				lat.add(us)
			}
			p.lat = nil
			measured = append(measured, p)
		}
	}
	if err := checkDigests(append([]*pass{warm}, measured...)); err != nil {
		return failedResult(measured), err
	}
	res := &result{Correct: true, Metrics: endToEndMetrics(measured, lat, setups)}
	for _, p := range measured {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	printMetrics(out, w.name, fmt.Sprintf("%d untraced passes over %d seeds", len(measured), len(seeds)), endToEnd, res.Metrics)
	printTail(out, lat)
	return res, nil
}

// measureTraced runs one discarded warm-up pass, then pairs of an untraced
// and a traced pass of one sub-seed, each followed by a layer replay of
// that sub-seed, until the budget is spent (at least one pair). It
// reports the per-layer metrics: medians over the pairs.
func measureTraced(w benchWorkload, seed int64, smoke bool, budget time.Duration, spansPath string, out io.Writer) (*result, error) {
	seeds := subSeeds(seed, w.passes)
	if _, err := runOnce(w, seeds[0], smoke, nil); err != nil {
		return failedResult(nil), err
	}
	var (
		untraced []*pass
		rows     []map[string]float64
		last     *tracer
	)
	lat := newLatencyHist()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		s := seeds[i%len(seeds)]
		u, err := runOnce(w, s, smoke, nil)
		if err != nil {
			return failedResult(untraced), err
		}
		for _, us := range u.lat {
			lat.add(us)
		}
		u.lat = nil
		t, err := runOnce(w, s, smoke, newTracer())
		if err != nil {
			return failedResult(untraced), err
		}
		r, err := w.replay(s, smoke)
		if err != nil {
			return failedResult(untraced), err
		}
		untraced = append(untraced, u)
		if err := checkDigests([]*pass{u, t}); err != nil {
			return failedResult(untraced), fmt.Errorf("traced run diverged from untraced run: %w", err)
		}
		rows = append(rows, layerMetrics(w, u, t, r))
		last = t.tr
		last.merge(r.tr)
	}
	res := &result{Correct: true, Metrics: map[string]metricOut{}}
	for _, p := range untraced {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	for _, d := range perLayer {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row[d.name]
		}
		res.Metrics[d.name] = metricOut{Value: median(vals), Unit: d.unit}
	}
	printMetrics(out, w.name, fmt.Sprintf("%d untraced passes alongside the traced ones", len(untraced)), endToEnd, endToEndMetrics(untraced, lat, nil))
	printTail(out, lat)
	printMetrics(out, w.name, fmt.Sprintf("traced run, medians of %d traced passes and layer replays", len(rows)), perLayer, res.Metrics)
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	if err := last.write(spansPath); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans of the last traced pass and its layer replay: %s\n", spansPath)
	return res, nil
}

func failedResult(passes []*pass) *result {
	res := &result{Correct: false, Metrics: map[string]metricOut{}}
	for _, p := range passes {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	return res
}

// checkDigests is the determinism half of the correctness gate: every pass
// of one seed must produce the same simulated outputs, traced or not.
func checkDigests(passes []*pass) error {
	first := map[int64]*pass{}
	for _, p := range passes {
		f, ok := first[p.seed]
		if !ok {
			first[p.seed] = p
			continue
		}
		if p.digest != f.digest {
			return fmt.Errorf("simulated outputs differ between passes of seed %d:\n  %s\n  %s", p.seed, f.digest, p.digest)
		}
	}
	return nil
}

// endToEndMetrics pools the passes: throughput per CPU second,
// allocation, mean DC(C) and served share over all their requests, the
// median latency over the histogram, and medians of the set-up times and
// per-pass heap peaks.
func endToEndMetrics(passes []*pass, lat *latencyHist, setups []float64) map[string]metricOut {
	var ops, failed, dcN int
	var cpu time.Duration
	var allocBytes uint64
	var dcSum float64
	peaks := make([]float64, len(passes))
	for i, p := range passes {
		ops += p.ops
		failed += p.failed
		cpu += p.cpu
		allocBytes += p.allocBytes
		dcSum += p.dcSum
		dcN += p.dcN
		peaks[i] = float64(p.peakLive) / (1 << 20)
	}
	vals := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_cpu_s":      float64(ops) / cpu.Seconds(),
		"req_p50_us":         lat.percentile(50),
		"peak_live_heap_mib": median(peaks),
		"alloc_bytes_per_op": float64(allocBytes) / float64(ops),
		"sim_dc_mean":        dcSum / float64(dcN),
		"served_frac":        1 - float64(failed)/float64(ops),
	}
	out := make(map[string]metricOut, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// replayLayers are the layer calls a layer replay times; their self times
// are what the ledger charges to the layers cloudsim and the service call
// internally. Sink writes are excluded here because the real run measures
// them directly.
var replayLayers = []string{
	"placement.PlaceSparse",
	"placement.PlaceDeltaSparse",
	"placement.ReleaseSubsetSparse",
	"placement.PlaceBatch",
	"inventory.AllocateList",
	"inventory.ReleaseList",
	"inventory.Allocate",
	"inventory.Release",
	"eventsim.Step",
	"stats.Observe",
	"obs.Emit",
	"migration.Plan",
}

// layerMetrics derives one row of per-layer metrics from an untraced pass
// u, a traced pass t of the same seed, and a layer replay r.
func layerMetrics(w benchWorkload, u, t *pass, r *replay) map[string]float64 {
	ops := float64(t.ops)
	real := t.tr.totals()
	rep := r.tr.totals()
	perCall := func(m map[string]layerTime, name string) float64 {
		lt := m[name]
		if lt.calls == 0 {
			return 0
		}
		return float64(lt.self) / float64(lt.calls)
	}
	var replayed float64 // ns per op the layer replay charges to named layers
	for _, name := range replayLayers {
		replayed += float64(rep[name].self) / float64(r.ops)
	}
	row := map[string]float64{}
	for k, v := range t.counts {
		row[k] = v
	}
	for k, v := range r.counts {
		row[k] = v
	}
	row["placement.place_sparse_ns"] = perCall(rep, "placement.PlaceSparse")
	row["placement.place_sparse_calls"] = float64(rep["placement.PlaceSparse"].calls)
	row["placement.place_batch_ns"] = perCall(rep, "placement.PlaceBatch")
	row["placement.place_batch_calls"] = float64(rep["placement.PlaceBatch"].calls)
	row["inventory.allocate_list_ns"] = perCall(rep, "inventory.AllocateList")
	row["inventory.release_list_ns"] = perCall(rep, "inventory.ReleaseList")
	if n := rep["inventory.Allocate"].calls + rep["inventory.Release"].calls; n > 0 {
		row["inventory.dense_ns"] = float64(rep["inventory.Allocate"].self+rep["inventory.Release"].self) / float64(n)
	}
	row["eventsim.step_self_ns"] = perCall(rep, "eventsim.Step")
	row["eventsim.events_per_req"] = float64(rep["eventsim.Step"].calls) / float64(r.ops)
	row["obs.emit_ns"] = perCall(rep, "obs.Emit")
	row["obs.sink_write_ns"] = perCall(real, "obs.sink_write")
	row["workload.next_ns"] = perCall(real, "workload.next")
	// One stats.Observe span covers the wait and the distance sketch.
	row["stats.observe_ns"] = perCall(rep, "stats.Observe") / 2
	row["migration.plan_ns"] = perCall(rep, "migration.Plan")
	row["migration.plan_calls"] = float64(rep["migration.Plan"].calls)

	endToEnd := float64(w.clients) * float64(u.wall.Nanoseconds()) / float64(u.ops)
	explained := replayed
	if w.clients == 1 {
		// Replays: the real run's pulls and sink writes are measured
		// directly; whatever the named layers leave of the traced
		// RunStream/Run span is cloudsim's own cost.
		explained += float64(real["workload.next"].total+real["obs.sink_write"].total) / ops
		row["cloudsim.self_ns_per_req"] = float64(real["cloudsim.run"].total)/ops - explained
	} else {
		var calls, callNs int64
		for _, k := range []string{"service.Place", "service.Grow", "service.Shrink", "service.Release"} {
			calls += int64(real[k].calls)
			callNs += real[k].total
		}
		row["service.place_ns"] = perCall(real, "service.Place")
		row["service.grow_ns"] = perCall(real, "service.Grow")
		row["service.shrink_ns"] = perCall(real, "service.Shrink")
		row["service.release_ns"] = perCall(real, "service.Release")
		row["service.pipeline_overhead_ns"] = float64(callNs)/float64(calls) - replayed
		row["service.allocs_per_op"] = float64(u.allocObjects) / float64(u.ops)
	}
	row["ledger.end_to_end_ns_per_req"] = endToEnd
	row["ledger.explained_frac"] = explained / endToEnd
	row["ledger.residual_ns_per_req"] = endToEnd - explained
	row["trace.overhead_frac"] = t.wall.Seconds()/u.wall.Seconds() - 1
	return row
}

// printTail prints the latency tail, which is reported but not gated: the
// soaks' 99th percentile is set by GC pauses and host preemption and the
// service's 90th by thread wake-ups, so each moved by more than a quarter
// between runs of the same code on a shared host.
func printTail(out io.Writer, lat *latencyHist) {
	fmt.Fprintf(out, "  latency over %d samples: p90 %.4g us, p99 %.4g us, p99.9 %.4g us\n",
		lat.n, lat.percentile(90), lat.percentile(99), lat.percentile(99.9))
}

func printMetrics(out io.Writer, name, note string, defs []metricDef, m map[string]metricOut) {
	fmt.Fprintf(out, "%s: %s\n", name, note)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// median of vals (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}
