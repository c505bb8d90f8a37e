// Command perfbench is elmocomp's benchmark: four workloads driven
// through the public entry points of the library and the efmd job
// service, every output checked against a reference. See README.md.
//
//	bash perfbench/run.sh --workload dd-synth --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced pass.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// instance is a set-up workload.
type instance interface {
	// pass runs the workload's operation list once, untraced, and
	// returns its samples and wall time. An error means the benchmark
	// itself could not run; failed operations are reported in their
	// samples.
	pass() ([]sample, float64, error)
	// traced runs the operation list once with spans around every call
	// into a layer, adding counts from the results' stats to m. It
	// returns the samples and the traced counterpart of pass's wall.
	traced(tr *tracer, m metrics) ([]sample, float64, error)
	// rss is the peak resident set size of the process that computes.
	rss() (int64, error)
	close()
}

// workload names a set-up function and the fixed percentile its tail
// metrics report. On exact and service that is the highest percentile
// with at least minBeyond samples above it at the run length in
// BENCHMARK.json. The double-description workloads run too few
// operations for any such tail (5 per pass, 3-8 passes); their tail is
// 0, and they report per-kind figures instead (kindMedian and
// slowestKind).
type workload struct {
	setup func(seed int64) (instance, error)
	tail  float64
}

var workloads = map[string]workload{
	"dd-synth": {setupDDSynth, 0},
	"dd-yeast": {setupDDYeast, 0},
	"exact":    {setupExact, 0.75},
	"service":  {setupService, 0.9},
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// add accumulates into a metric.
func (m metrics) add(name string, v float64, unit string) {
	m[name] = metric{m[name].Value + v, unit}
}

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: dd-synth | dd-yeast | exact | service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(*name, wl, *seed, *out)
	} else {
		rep, err = runMeasured(*name, wl, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setUp runs the workload's set-up setupReps times, keeping the last
// instance, and returns the median set-up time.
func setUp(wl workload, seed int64) (instance, float64, error) {
	var times []float64
	var in instance
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = wl.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return in, median(times), nil
}

// runMeasured is the untraced run: passes of the operation list until
// the next pass would end past the run length (at least one pass).
func runMeasured(name string, wl workload, seed int64, seconds float64) (*report, error) {
	in, setup, err := setUp(wl, seed)
	if err != nil {
		return nil, err
	}
	defer in.close()
	var all []sample
	var walls []float64
	start := time.Now()
	busy := 0.0
	for {
		s, wall, err := in.pass()
		if err != nil {
			return nil, err
		}
		all = append(all, s...)
		walls = append(walls, wall)
		busy += wall
		if time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
	}
	rss, err := in.rss()
	if err != nil {
		return nil, err
	}
	rep := tally(all)
	m := rep.Metrics
	m.set("setup_s", setup, "s")
	m.set("wall_s", median(walls), "s")
	m.set("ops_per_s", float64(len(all))/busy, "1/s")
	m.set("peak_rss_bytes", float64(rss), "bytes")
	// Latency percentiles are over the operations that succeeded; the
	// failed ones are counted by ok_frac instead.
	var first []float64
	byOp := map[string][]float64{}
	for _, s := range all {
		if s.err == nil {
			first = append(first, s.firstMode)
			byOp[s.op] = append(byOp[s.op], s.firstMode)
		}
	}
	if len(first) == 0 {
		return nil, errors.New("no operation succeeded")
	}
	if q := wl.tail; q == 0 {
		m.set("first_mode_p50_s", kindMedian(byOp), "s")
		m.set("first_mode_tail_s", slowestKind(byOp), "s")
	} else {
		if n := len(first); n-int(math.Ceil(q*float64(n))) < minBeyond {
			fmt.Printf("note: p%g of %d samples leaves fewer than %d above it\n", q*100, n, minBeyond)
		}
		m.set("first_mode_p50_s", median(first), "s")
		m.set("first_mode_tail_s", quantile(first, q), "s")
	}
	printDetail(name, wl, all, walls, m)
	return rep, nil
}

// tally counts attempted and failed operations and prints the first
// failure of each operation. A failed operation that is not a
// registered known defect makes the run incorrect.
func tally(all []sample) *report {
	rep := &report{Correct: true, Attempted: len(all), Metrics: metrics{}}
	seen := map[string]bool{}
	for _, s := range all {
		if s.err == nil {
			continue
		}
		rep.Failed++
		defect, known := knownDefects[s.op]
		if !known {
			rep.Correct = false
		}
		if seen[s.op] {
			continue
		}
		seen[s.op] = true
		if known {
			fmt.Printf("known defect (%s): %v\n", defect, s.err)
		} else {
			fmt.Printf("FAILED: %v\n", s.err)
		}
	}
	rep.Metrics.set("ok_frac", 1-float64(rep.Failed)/float64(rep.Attempted), "ratio")
	return rep
}

// printDetail prints the per-operation breakdown of a measured run:
// the failure fraction and the per-driver and per-class figures that
// apply to this workload, each with its sample count.
func printDetail(name string, wl workload, all []sample, walls []float64, m metrics) {
	tail := "per-kind p50 and tail"
	if wl.tail > 0 {
		tail = fmt.Sprintf("p%g", wl.tail*100)
	}
	fmt.Printf("workload %s: %d passes, %d operations, tail = %s\n", name, len(walls), len(all), tail)
	failed := 0
	byOp := map[string][]float64{}
	byClass := map[string][]float64{}
	var firstModes []float64
	for _, s := range all {
		if s.err != nil {
			failed++
		}
		byOp[s.op] = append(byOp[s.op], s.latency)
		if s.class != "" {
			byClass[s.class] = append(byClass[s.class], s.latency)
		}
		if s.firstMode < s.latency {
			firstModes = append(firstModes, s.firstMode)
		}
	}
	fmt.Printf("  failed_frac %.4f (%d of %d)\n", float64(failed)/float64(len(all)), failed, len(all))
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		xs := byOp[op]
		fmt.Printf("  %-28s median %.4f s over %d\n", op, median(xs), len(xs))
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := byClass[c]
		q := tailPercentile(len(xs))
		fmt.Printf("  job_%s_p50_s %.4f, p%g %.4f s over %d\n", c, median(xs), q*100, quantileOrMax(xs, q), len(xs))
	}
	if len(firstModes) > 0 {
		q := tailPercentile(len(firstModes))
		fmt.Printf("  streamed first mode p50 %.4f, p%g %.4f s over %d\n", median(firstModes), q*100, quantileOrMax(firstModes, q), len(firstModes))
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-20s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// quantileOrMax is quantile, or the maximum when q is 0 (too few
// samples for any tail).
func quantileOrMax(xs []float64, q float64) float64 {
	if q == 0 {
		q = 1
	}
	return quantile(xs, q)
}

// runTraced is the traced run: set-up once, one untraced pass as the
// overhead baseline, then one traced pass whose spans are written to
// the out directory and reduced to the per-layer metrics.
func runTraced(name string, wl workload, seed int64, outDir string) (*report, error) {
	in, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	base, untraced, err := in.pass()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m := metrics{}
	got, wall, err := in.traced(tr, m)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	fmt.Printf("wrote %d spans to %s\n", len(spans), path)
	rep := tally(append(base, got...))
	rep.Metrics = perLayer(spans, m, wall, untraced)
	return rep, nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
