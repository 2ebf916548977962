// Command perfbench is the repository's benchmark. It starts IFDB
// nodes in-process behind loopback sockets, drives one of three
// labeled workloads against them in a closed loop, checks the answers,
// and prints one JSON result line:
//
//	perfbench --workload neworder --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the per-layer pass (timed probe queries, an untraced window, a
// traced window, and an IFC-off replay on the same seed) and writes the
// span file. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark traffic mix over its own database(s).
type workload interface {
	// setup builds and loads the database, starts its servers and
	// clients, and warms them with a fixed number of operations.
	setup() error
	// window runs the closed loop for d. A non-nil tracer traces every
	// operation.
	window(d time.Duration, tr *tracer) *tally
	// probe runs timed, checked queries on the state set-up left
	// (classes agg, topk, first_row, write) into t, reps times, for the
	// per-class metrics of classes the workload's own traffic lacks.
	probe(t *tally, reps int) error
	// check verifies the database state after the run against the
	// generator's record.
	check() error
	// layers adds the per-layer metrics that need the workload's own
	// statements, labels or storage.
	layers(m metrics) error
	// tupleBytes is Engine.Stats().TupleBytes/Tuples over every node.
	tupleBytes() float64
	close()
}

// opts configures one set-up of a workload.
type opts struct {
	ifc bool // Config.IFC
	// fsync makes neworder's node commit with SyncMode group; without
	// it the node logs with SyncMode off. The end-to-end run leaves it
	// off: on a shared host the fsync latency is set by other tenants'
	// disk traffic, which moved throughput by ~40% between runs. The
	// traced run turns it on for the wal.* metrics.
	fsync bool
}

type maker func(seed int64, dir string, o opts) workload

var workloads = map[string]maker{
	"neworder":          newNeworder,
	"tenant-point":      newTenantPoint,
	"labeled-analytics": newAnalytics,
}

// ifcReplayed names the workloads whose traced run replays the seed
// with Config.IFC=false for the label.ifc_* metrics (0 elsewhere).
var ifcReplayed = map[string]bool{"neworder": true, "tenant-point": true}

// setups is how many times a --trace 0 run builds its database; setup_s
// is the median.
const setups = 5

// The rate and percentiles are computed over up to maxSlices equal
// parts of the window, each holding at least sliceOps successful
// operations on average (so a part's p99 has 10 samples beyond it).
// Each is the median of its per-part values, so a burst of load from
// outside the benchmark moves one part, not the result.
const (
	maxSlices = 5
	sliceOps  = 1000
)

func parts(t *tally) int { return min(maxSlices, max(1, t.okSamples()/sliceOps)) }

// probeReps repeats each timed probe query of the traced run, after
// probeWarm untimed rounds.
const (
	probeReps = 11
	probeWarm = 3
)

// metrics maps a metric name to its value; units come from the
// endToEnd and perLayer lists.
type metrics map[string]float64

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "neworder | tenant-point | labeled-analytics")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload neworder|tenant-point|labeled-analytics --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := runDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	var res *result
	if *trace == 1 {
		res, err = runTraced(*name, mk, *seed, time.Duration(*secs)*time.Second, dir)
	} else {
		res, err = runPlain(mk, *seed, time.Duration(*secs)*time.Second, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runDir is a fresh working directory under the build directory of
// the checkout (CARGO_TARGET_DIR when set).
func runDir() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	base = filepath.Join(base, "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// runPlain is the end-to-end run: set up several times, measure one
// untraced window, then check the outputs.
func runPlain(mk maker, seed int64, d time.Duration, dir string) (*result, error) {
	var setupS []float64
	var w workload
	for i := 0; i < setups; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		cand := mk(seed, sub, opts{ifc: true})
		t0 := time.Now()
		if err := cand.setup(); err != nil {
			cand.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			cand.close()
			os.RemoveAll(sub)
			runtime.GC() // keep discarded set-ups out of the next one's heap
			continue
		}
		w = cand
	}
	defer w.close()
	tupleBytes := w.tupleBytes()

	// Start the window from a collected heap, not mid-way to a
	// collection that set-up's garbage triggers.
	runtime.GC()
	t := w.window(d, nil)
	checkErr := w.check()

	rates, lat := t.sliced(d, parts(t), 0.50, 0.90, 0.99)
	fmt.Printf("parts: ops/s %.1f\nparts: p50 ms %.3f\nparts: p90 ms %.3f\nparts: p99 ms %.3f\n",
		rates, lat[0], lat[1], lat[2])
	m := metrics{
		"setup_s":     median(setupS),
		"ops_per_s":   median(rates),
		"lat_p50_ms":  median(lat[0]),
		"lat_p90_ms":  median(lat[1]),
		"ok_frac":     1 - ratio(float64(t.failed()), float64(t.attempted)),
		"max_rss_mb":  maxRSSMB(),
		"tuple_bytes": tupleBytes,
	}
	report(os.Stdout, t)
	return finish(t, m, checkErr, endToEnd)
}

// runTraced is the per-layer run on one seed: the timed probes, an
// untraced window (the counter deltas and the trace-overhead base), a
// traced window (the phase split and spans), and an IFC-off replay
// (the IFC overhead).
func runTraced(name string, mk maker, seed int64, d time.Duration, dir string) (*result, error) {
	part := d / 3
	if err := os.MkdirAll(filepath.Join(dir, "ifc-on"), 0o755); err != nil {
		return nil, err
	}
	on := mk(seed, filepath.Join(dir, "ifc-on"), opts{ifc: true, fsync: true})
	if err := on.setup(); err != nil {
		on.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	probes := newTally()
	probeErr := on.probe(probes, probeReps)
	runtime.GC()
	p0 := takeProbe()
	plain := on.window(part, nil)
	p1 := takeProbe()
	runtime.GC()
	tr := newTracer()
	traced := on.window(part, tr)
	checkErr := errors.Join(probeErr, on.check())
	m := metrics{}
	layerMetrics(m, plain, p1.sub(p0))
	tr.metrics(m)
	checkErr = errors.Join(checkErr, on.layers(m))
	on.close()
	_, p99 := plain.sliced(part, parts(plain), 0.99)
	m["lat_p99_ms"] = median(p99[0])
	// A class the workload's traffic has is timed in the untraced
	// window; the others come from the probes.
	for _, class := range []string{"write", "agg", "topk", "first_row"} {
		s := plain.lat[class]
		if len(s) == 0 {
			s = probes.lat[class]
		}
		m[class+"_p50_ms"] = s.quantile(0.5)
	}

	m["label.ifc_cost_us_per_op"], m["label.ifc_overhead_pct"] = 0, 0
	all := newTally()
	if ifcReplayed[name] {
		base, err := ifcOff(mk, seed, part, filepath.Join(dir, "ifc-off"))
		if err != nil {
			return nil, err
		}
		if base.wrong != "" && checkErr == nil {
			checkErr = fmt.Errorf("ifc-off replay: %s", base.wrong)
		}
		onUs := 1000 * plain.opMean()
		offUs := 1000 * base.opMean()
		m["label.ifc_cost_us_per_op"] = onUs - offUs
		m["label.ifc_overhead_pct"] = 100 * ratio(onUs-offUs, offUs)
		all.merge(base)
	}
	m["obs.trace_overhead_pct"] = 100 * ratio(traced.opMean()-plain.opMean(), plain.opMean())

	path, err := tr.write(name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	tr.table(os.Stdout)
	all.merge(plain)
	all.merge(traced)
	report(os.Stdout, all)
	return finish(all, m, checkErr, perLayer)
}

// ifcOff sets the workload up again with Config.IFC=false on the same
// seed and measures one untraced window; output check failures are
// folded into the returned tally.
func ifcOff(mk maker, seed int64, d time.Duration, dir string) (*tally, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	off := mk(seed, dir, opts{fsync: true})
	defer off.close()
	if err := off.setup(); err != nil {
		return nil, fmt.Errorf("setup ifc-off: %w", err)
	}
	runtime.GC()
	t := off.window(d, nil)
	if err := off.check(); err != nil {
		t.mismatch(err.Error())
	}
	return t, nil
}

// finish validates the metric set and builds the result line.
func finish(t *tally, m metrics, checkErr error, want []metricSpec) (*result, error) {
	res := &result{Correct: checkErr == nil && t.wrong == "", Attempted: t.attempted, Failed: t.failed(),
		Metrics: map[string]metricValue{}}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", checkErr)
	}
	if t.wrong != "" {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", t.wrong)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	for _, spec := range want {
		v, ok := m[spec.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", spec.name)
		}
		res.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit}
	}
	return res, nil
}

// report prints the failure breakdown and the latency classes before
// the result line.
func report(f *os.File, t *tally) {
	fmt.Fprintf(f, "ops: attempted=%d ok=%d latency_samples=%d\n", t.attempted, t.committed, t.okSamples())
	fmt.Fprintf(f, "failures: serialization_retried=%d statement_canceled=%d other=%d\n",
		t.retried, t.canceled, t.other)
	if t.firstErr != nil {
		fmt.Fprintf(f, "first failure: %v\n", t.firstErr)
	}
	line := func(kind, name string, s samples) {
		fmt.Fprintf(f, "  %-5s %-10s n=%-7d p50=%.3fms p90=%.3fms p99=%.3fms\n",
			kind, name, len(s), s.quantile(0.5), s.quantile(0.9), s.quantile(0.99))
	}
	for _, name := range sortedKeys(t.ops) {
		line("op", name, t.ops[name].lat)
	}
	for _, name := range sortedKeys(t.lat) {
		line("timed", name, t.lat[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
