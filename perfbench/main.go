// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process and prints, as the last line of standard output, a
// JSON object with the run's correctness verdict, its attempted and failed
// operation counts, and its metrics:
//
//	perfbench -workload fcat-signal -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with no probe
// installed. With -trace 1 it prints the per-layer metrics, measured from
// outside the program by timing calls into each layer's public functions
// and by wrapping the interfaces the program accepts (sim.Config.NewChannel,
// server.Server.Handler). Any failed correctness check makes it exit 1.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict and measurements for one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// violations lists every failed correctness check.
	violations []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness violation when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"tags_per_s", "1/s"}, {"air_tags_per_s", "1/s"}, {"steps_per_s", "1/s"},
	{"op_p50_ms", "ms"}, {"op_tail_ms", "ms"}, {"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"channel.observe_s", "s"}, {"channel.observe_n", "count"},
	{"channel.decode_s", "s"}, {"channel.decode_n", "count"}, {"channel.decode_ok_frac", "ratio"},
	{"channel.subtract_s", "s"}, {"channel.subtract_n", "count"},
	{"protocol.self_s", "s"}, {"tagid.population_s", "s"},
	{"runtime.allocs_per_slot", "allocs/slot"}, {"runtime.gc_cpu_frac", "ratio"},
	{"sim.busy_frac", "ratio"}, {"obs.metrics_overhead_frac", "ratio"},
	{"server.handler_step_ms", "ms"}, {"server.handler_admit_ms", "ms"}, {"http.overhead_ms", "ms"},
	{"client.admit_p50_ms", "ms"},
	{"checkpoint.encode_ms", "ms"}, {"store.write_ms", "ms"},
	{"server.checkpoint_writes", "count"}, {"server.checkpoint_bytes", "bytes"},
	{"store.recover_s", "s"}, {"server.replay_s", "s"},
	{"slots.total", "count"}, {"slots.empty", "count"}, {"slots.singleton", "count"},
	{"slots.collision", "count"}, {"ids.direct", "count"}, {"ids.resolved", "count"}, {"frames", "count"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*result, error){
	"fcat-signal":  func(o options) (*result, error) { return runCampaign(fcatSignal, o) },
	"server-mixed": runServerMixed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload name: fcat-signal or server-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "target measurement time; sizes the workload's fixed work")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for the server workload's temporary data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	drive, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or non-positive -seconds\n", o.workload)
		return 2
	}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.trace {
		// Every workload prints every per-layer metric; a layer the
		// workload does not exercise reads 0.
		for _, m := range perLayer {
			got, ok := res.Metrics[m.name]
			if !ok {
				res.set(m.name, 0, m.unit)
			}
			res.check(!ok || got.Unit == m.unit, "per-layer metric %s reported in %s, declared in %s", m.name, got.Unit, m.unit)
		}
	} else {
		res.set("peak_rss_mb", peakRSSMB(), "MB")
		for _, m := range endToEnd {
			got := res.Metrics[m.name]
			res.check(got.Value > 0 && got.Unit == m.unit, "end-to-end metric %s is %g %s, want a positive value in %s", m.name, got.Value, got.Unit, m.unit)
		}
	}
	printTable(o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, v := range res.violations {
			fmt.Fprintln(os.Stderr, "perfbench: correctness violation:", v)
		}
		return 1
	}
	return 0
}

// printTable writes the metrics as an aligned table ahead of the JSON line.
func printTable(o options, r *result) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer"
	}
	fmt.Printf("# %s seed=%d seconds=%g %s (attempted %d, failed %d, correct %v)\n",
		o.workload, o.seed, o.seconds, mode, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("#   %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// mix derives an independent 64-bit value from a seed and a salt
// (SplitMix64 finaliser), so every input stream of a workload is a pure
// function of the workload seed.
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
