package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one printed metric and its unit. BENCHMARK.json lists the
// same names; the harness self-test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run. Each workload fills
// every one of them; README.md maps them onto the per-workload quantities
// (boot_s, ks_circuit_s, serve_jobs_per_s, job_p50_ms, ...).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"tmult_a_slot_ns", "ns"},
	{"prec_bits", "bits"},
	{"peak_rss_mib", "MiB"},
}

// perLayerMetrics are printed by every traced run. A metric of a layer the
// workload does not exercise reads 0 (e.g. ckks.boot.* on keyswitch-n15).
var perLayerMetrics = []metricDef{
	// ring kernel sheet at the workload's (N, top level), uniform residues.
	{"ring.ntt_us", "us"},
	{"ring.intt_us", "us"},
	{"ring.bconv_modup_us", "us"},
	{"ring.bconv_moddown_us", "us"},
	{"ring.mulacc_us", "us"},
	{"ring.automorphism_us", "us"},
	{"ring.ntt_gbps_computed", "GB/s"},
	{"ring.ntt_ops_per_byte_computed", "op/B"},
	{"ring.bconv_gbps_computed", "GB/s"},
	{"ring.bconv_ops_per_byte_computed", "op/B"},
	// ring engine and scratch pools, over the measured loop.
	{"ring.engine.runs_per_job", "count"},
	{"ring.engine.tasks_per_run", "count"},
	{"ring.engine.stolen_frac", "ratio"},
	{"ring.engine.sharded_frac", "ratio"},
	{"ring.pool.miss_frac", "ratio"},
	{"ring.engine.speedup_2w", "ratio"},
	// ckks bootstrap phases and exact per-bootstrap op counts.
	{"ckks.boot.mod_raise_ms", "ms"},
	{"ckks.boot.cts_ms", "ms"},
	{"ckks.boot.eval_mod_ms", "ms"},
	{"ckks.boot.stc_ms", "ms"},
	{"ckks.boot.residue_frac", "ratio"},
	{"ckks.boot.cold_extra_ms", "ms"},
	{"ckks.boot.mult", "count"},
	{"ckks.boot.full_rot", "count"},
	{"ckks.boot.hoisted_rot", "count"},
	{"ckks.boot.decompose", "count"},
	{"ckks.boot.mod_down", "count"},
	{"ckks.boot.rescale", "count"},
	{"ckks.boot.pmult", "count"},
	{"ckks.boot.key_switch", "count"},
	// ckks evaluator ops at the top level and at level 1.
	{"ckks.mulrelin.top_ms", "ms"},
	{"ckks.rotate.top_ms", "ms"},
	{"ckks.rotfan4.top_ms", "ms"},
	{"ckks.rescale.top_ms", "ms"},
	{"ckks.mulrelin.low_ms", "ms"},
	{"ckks.rotate.low_ms", "ms"},
	{"ckks.rotfan4.low_ms", "ms"},
	{"ckks.rescale.low_ms", "ms"},
	{"ckks.circuit.residue_frac", "ratio"},
	{"ckks.mulrelin.work_ms", "ms"},
	// wire codec.
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_job.slot", "B"},
	{"wire.bytes_per_job.dag", "B"},
	// serve runtime.
	{"serve.server_p50_ms", "ms"},
	{"serve.transport_p50_ms", "ms"},
	{"serve.linger_wait_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.hoist_shared_per_job", "count"},
	{"serve.encoding_hit_frac", "ratio"},
	{"serve.open_session_ms", "ms"},
	// load generator health.
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	// the harness itself.
	{"bench.trace_overhead_frac", "ratio"},
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// precBits returns -log2 of a maximum absolute error.
func precBits(maxErr float64) float64 {
	if maxErr <= 0 {
		return 64
	}
	return -math.Log2(maxErr)
}

// maxAbsErr is the largest |got[i] - want[i]|.
func maxAbsErr(got, want []complex128) float64 {
	worst := 0.0
	for i := range want {
		d := got[i] - want[i]
		if e := math.Hypot(real(d), imag(d)); e > worst || math.IsNaN(e) {
			if math.IsNaN(e) {
				return math.Inf(1)
			}
			worst = e
		}
	}
	return worst
}

// cpuTicks reads the host's aggregate CPU time counters from /proc/stat and
// returns the busy ticks (neither idle nor waiting on I/O, steal included)
// and the stolen ticks (time a virtual CPU had work but the hypervisor ran
// something else); zeros off Linux.
func cpuTicks() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 3, 4:
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return busy, steal
}

// stealMeter measures, over an interval, the share of the virtual CPUs'
// busy time that the hypervisor stole to run other guests. Steal accrues
// only while a virtual CPU has work, and this process is the machine's
// only load, so the work in the interval ran that much slower than on an
// uncontended host. Timings are reported with it taken out (unstolen),
// which keeps runs comparable while neighbours on the host come and go;
// the host line reports the run's raw share.
type stealMeter struct{ busy, steal float64 }

func startSteal() stealMeter {
	b, s := cpuTicks()
	return stealMeter{b, s}
}

// frac returns the stolen share of busy CPU time since the meter started.
func (m stealMeter) frac() float64 {
	b, s := cpuTicks()
	if b <= m.busy {
		return 0
	}
	return (s - m.steal) / (b - m.busy)
}

// unstolen scales a duration measured since the meter started by the share
// of CPU time that was not stolen.
func (m stealMeter) unstolen(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 - m.frac()))
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status; off Linux it falls back to the Go runtime's total
// obtained memory.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
