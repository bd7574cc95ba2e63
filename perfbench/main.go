// Command perfbench is the repository's benchmark. It measures the
// real-socket split proxy (origin, StartRemote and StartDomestic on
// loopback, driven open loop) and the paper simulator (RunSweep over the
// paper's figures), and prints one JSON result line.
//
//	perfbench -workload http-fresh|connect-bulk|cache-zipf|sim-paper
//	          -seed N -seconds S -trace 0|1 [-records DIR]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it makes a
// separate traced run and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, the same for every
// workload (BENCHMARK.json's end_to_end). Latency is printed beside them
// but not gated: on a shared host it follows the neighbours' load more
// than the program (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MiB"},
}

// perLayer lists the metrics of a traced run (BENCHMARK.json's
// per_layer). Every traced run prints all of them; a workload that does
// not exercise a layer reports that layer's workload counters as 0.
var perLayer = slices.Concat(microMetrics, deployLayerMetrics, simLayerMetrics, runtimeMetrics)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"http-fresh":   deployRunner(deployWorkload{rate: 300, mode: fresh, objects: 64, size: 2 << 10}),
	"connect-bulk": deployRunner(deployWorkload{rate: 100, mode: tunnel, objects: 16, size: 256 << 10}),
	"cache-zipf":   deployRunner(deployWorkload{rate: 1500, mode: keepAlive, objects: 512, size: 32 << 10, zipf: true, cacheMB: 4}),
	"sim-paper":    runSim,
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	records  string // directory for raw per-request records ("" = none)
}

// report is one run's result.
type report struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	// notes are extra human-readable lines (sample counts, error
	// breakdown, digests) printed above the JSON line.
	notes []string
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zero reports every metric in defs as 0: the workload does not exercise
// those layers.
func (r *report) zero(defs []metricDef) {
	for _, d := range defs {
		r.set(d.name, 0)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// render prints every metric by name with its unit, the notes, and last
// the JSON result line. It fails when the run did not produce exactly the
// metrics its mode promises.
func (r *report) render(defs []metricDef) (string, error) {
	var b strings.Builder
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(&b, "%-34s %14.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(res.Metrics) != len(r.values) {
		var extra []string
		for name := range r.values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("metrics not declared for this mode: %s", strings.Join(extra, ", "))
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	b.Write(line)
	b.WriteByte('\n')
	return b.String(), nil
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run that prints the per-layer metrics")
	flag.StringVar(&cfg.records, "records", "", "directory for a traced run's raw per-request records")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.seconds = float64(seconds)
	cfg.traced = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	out, err := rep.render(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
