// Command perfbench is the repository's benchmark: one command that runs a
// workload on the real library, checks its outputs and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as the last
// line of standard output:
//
//	perfbench --workload boot-n12 --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for the full metric contract):
//
//	boot-n12       warm bootstraps of one 2^11-slot ciphertext plus
//	               MulRelin+Rescale over the refreshed levels
//	keyswitch-n15  a key-switch circuit at N=2^15, dnum=1, no bootstrap
//	serve-mix      an in-process HTTP serve.Server with a slot-form and a
//	               register-form (DAG) tenant, closed- then open-loop
//
// The end-to-end run keeps the benchmark's tracing off. The traced run
// measures the same workload, records spans around the calls it makes into
// internal/ring, internal/ckks, internal/wire and internal/serve, reads the
// counters those packages expose, and reports the gap between its untraced
// and traced segments as tracing overhead.
//
// The process exits 0 when every output checked out, 1 when a correctness
// check failed (the result line is still printed, with "correct": false),
// and 2 on a usage or setup error (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// engineWorkers is the ring engine width every workload runs at.
const engineWorkers = 2

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy shrinks every workload to a seconds-scale instance; only the
	// harness self-test uses it.
	toy bool
}

// opCount tallies the operations of one phase of a workload. An operation
// whose output failed its check counts as failed, like one that errored.
type opCount struct {
	Phase  string `json:"phase"`
	Sent   int64  `json:"sent"`
	OK     int64  `json:"ok"`
	Failed int64  `json:"failed"`
}

// report is what a workload hands back to the harness.
type report struct {
	// shape records the workload's parameter set: N, L, dnum, slots.
	shape map[string]any
	// ops lists every phase's operation counts.
	ops []*opCount
	// endToEnd and perLayer hold the measured metric values by name.
	endToEnd map[string]float64
	perLayer map[string]float64
	// stealFrac is the share of busy CPU time the hypervisor stole while
	// the workload ran: a noise indicator.
	stealFrac float64
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
}

// count appends a phase's op tally and returns it for in-place updates.
func (r *report) count(phase string) *opCount {
	c := &opCount{Phase: phase}
	r.ops = append(r.ops, c)
	return c
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, tr *tracer) (*report, error){
	"boot-n12":      runBoot,
	"keyswitch-n15": runKeySwitch,
	"serve-mix":     runServe,
}

// corruptOutput, when set, perturbs decrypted values before they are
// checked. The harness self-test uses it to prove a wrong output fails.
var corruptOutput func(vals []complex128)

// decoded applies corruptOutput, if any, to a freshly decrypted vector.
func decoded(vals []complex128) []complex128 {
	if corruptOutput != nil {
		corruptOutput(vals)
	}
	return vals
}

// result is the last line of standard output.
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
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: boot-n12, keyswitch-n15 or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	info, _ := json.Marshal(describe(cfg, rep))
	fmt.Println(string(info))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
		os.Exit(1)
	}
}

// run executes one workload and assembles its result line.
func run(cfg config) (*result, *report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	tr := newTracer()
	sm := startSteal()
	rep, err := fn(cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	rep.stealFrac = sm.frac()
	if cfg.trace {
		tr.summarize(os.Stderr)
	}
	rep.endToEnd["peak_rss_mib"] = peakRSSMiB()

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, c := range rep.ops {
		res.Attempted += c.Sent
		res.Failed += c.Failed
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	catalog, values := endToEndMetrics, rep.endToEnd
	if cfg.trace {
		catalog, values = perLayerMetrics, rep.perLayer
	}
	for _, m := range catalog {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, rep, nil
}

// hostInfo is the configuration line printed before the result.
type hostInfo struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        float64        `json:"seconds"`
	Traced         bool           `json:"traced"`
	NProc          int            `json:"nproc"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	EngineWorkers  int            `json:"engine_workers"`
	Oversubscribed bool           `json:"oversubscribed"`
	GoVersion      string         `json:"go_version"`
	StealFrac      float64        `json:"steal_frac"`
	Shape          map[string]any `json:"shape"`
	Ops            []*opCount     `json:"ops"`
}

// describe records the host and configuration of a run. A run whose engine
// has more workers than the host has CPUs is flagged oversubscribed; its
// timings must not back a multi-core claim.
func describe(cfg config, rep *report) hostInfo {
	return hostInfo{
		Workload:       cfg.workload,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Traced:         cfg.trace,
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		EngineWorkers:  engineWorkers,
		Oversubscribed: engineWorkers > runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		StealFrac:      rep.stealFrac,
		Shape:          rep.shape,
		Ops:            rep.ops,
	}
}

// deadline returns the end of a measurement window of the given share of
// the run's seconds, starting now.
func deadline(cfg config, share float64) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * share * float64(time.Second)))
}
