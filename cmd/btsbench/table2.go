package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"bts/internal/ckks"
	"bts/internal/params"
	"bts/internal/ring"
	"bts/internal/sim"
	"bts/internal/telemetry"
	"bts/internal/workload"
)

// table2Report is the JSON document `-experiment table2` writes to stdout
// (CI archives it as BENCH_table2.json). It has two halves:
//
//   - A ring-kernel sweep at the instance's top level comparing the
//     Montgomery-domain production kernels against the retained Barrett
//     reference loops (internal/ring/reference.go) under the same engine
//     dispatch. The CI gate demands a geometric-mean speedup ≥ 1.3×. The
//     NTT/iNTT rows additionally report ns per radix-2-equivalent butterfly
//     and the effective algorithmic stream rate in GB/s.
//   - A full S=3 factored bootstrap on the instance — end-to-end wall time,
//     output precision and level, the measured key-switch op mix, and the
//     internal/sim calibration cross-check of that mix — followed (unless
//     -scaling=false) by a worker-scaling table re-running the bootstrap at
//     1/2/4/8 workers. On full-mode runs on hosts with ≥ 8 CPUs the 8-worker
//     row must be ≥ 4× faster than the same run's 1-worker row.
//
// Mode "smoke" (the default, what the PR CI job runs) exercises the same
// code paths on a scaled-down LogN=12 instance; mode "full" (-full) runs the
// actual N=2^17 Table 2 paper instance (INS-1) and is gated behind the
// bench workflow — it needs tens of minutes and several GiB of keys.
type table2Report struct {
	Experiment string         `json:"experiment"`
	Mode       string         `json:"mode"`
	Workers    int            `json:"workers"`
	HostCPUs   int            `json:"host_cpus"`
	Params     map[string]any `json:"params"`

	Kernels        []kernelResult `json:"kernels"`
	GeomeanSpeedup float64        `json:"geomean_speedup"`

	// TelemetryOverhead is the geomean slowdown of the Montgomery kernel
	// sweep with engine/pool telemetry attached, relative to the plain run
	// (0.01 = 1% slower; negative = measured faster). The instrumentation is
	// a nil-guarded branch plus a few atomic adds per engine dispatch, so
	// the gate demands ≤ 2%.
	TelemetryOverhead float64 `json:"telemetry_overhead"`

	Bootstrap table2Bootstrap `json:"bootstrap"`

	// Scaling is the worker-scaling table: the same bootstrap re-timed at
	// 1/2/4/8 workers, each row's speedup relative to the table's 1-worker
	// row. Omitted when -scaling=false (the bench workflow's 1-worker
	// archive run skips it — five paper-instance bootstraps on one core is
	// an hour of redundant wall-clock).
	Scaling []scalingEntry `json:"scaling,omitempty"`

	// Calibration is the software-vs-simulator cross-check of the measured
	// bootstrap op mix (hoisted rotations counted separately, as in the
	// bootstrap experiment).
	Calibration sim.CalibrationReport `json:"calibration"`

	Pass bool `json:"pass"`
}

// kernelResult is one row of the Montgomery-vs-Barrett kernel sweep. The
// butterfly metrics are only meaningful for the transform kernels (NTT,
// INTT) and are zero elsewhere: ns/butterfly normalizes the Montgomery time
// by the (level+1)·(N/2)·log2(N) radix-2-equivalent butterflies of the full
// transform, and the GB/s figure is the algorithmic stream traffic (one
// 8-byte load + one store per coefficient per radix-2 stage) over the same
// time — fused kernels touch memory less often than the algorithmic count,
// so beating DRAM bandwidth here is expected, not an error.
type kernelResult struct {
	Kernel         string  `json:"kernel"`
	MontgomeryMs   float64 `json:"montgomery_ms"`
	BarrettMs      float64 `json:"barrett_ms"`
	Speedup        float64 `json:"speedup"`
	NsPerButterfly float64 `json:"ns_per_butterfly,omitempty"`
	EffectiveGBs   float64 `json:"effective_gbps,omitempty"`
}

// scalingEntry is one row of the bootstrap worker-scaling table.
type scalingEntry struct {
	Workers     int     `json:"workers"`
	BootstrapMs float64 `json:"bootstrap_ms"`
	Speedup     float64 `json:"speedup_vs_1_worker"`
	MaxErr      float64 `json:"max_err"`
}

// table2Bootstrap describes the measured S=3 factored bootstrap run.
type table2Bootstrap struct {
	CtSDiags     []int   `json:"cts_diags"`
	StCDiags     []int   `json:"stc_diags"`
	RotationKeys int     `json:"rotation_keys"`
	KeySetMiB    float64 `json:"key_set_mib"`
	TimeMs       float64 `json:"time_ms"`
	MaxErr       float64 `json:"max_err"`
	Level        int     `json:"level"`

	// Phases is the wall-time breakdown of the timed bootstrap
	// (ckks.Bootstrapper.LastPhases): the four pipeline stages the paper's
	// Figure 3 profiles.
	Phases table2Phases `json:"phases"`

	Mult           int64 `json:"mult"`
	FullRot        int64 `json:"full_rot"`
	HoistedRot     int64 `json:"hoisted_rot"`
	Decompose      int64 `json:"decompose"`
	ModDown        int64 `json:"mod_down"`
	KeySwitchTotal int64 `json:"key_switch_total"`
}

// table2Phases is the bootstrap phase breakdown in milliseconds.
type table2Phases struct {
	ModRaiseMs    float64 `json:"mod_raise_ms"`
	CoeffToSlotMs float64 `json:"coeff_to_slot_ms"`
	EvalModMs     float64 `json:"eval_mod_ms"`
	SlotToCoeffMs float64 `json:"slot_to_coeff_ms"`
}

// table2SmokeLiteral is the scaled-down stand-in for the paper instance: the
// same S=3 stage structure and chain shape (one wide base prime, a 45-bit
// multiplication/SlotToCoeff section, a base-prime-sized bootstrap section,
// one special-prime tier) at LogN=12, so the PR CI job exercises every
// table2 code path — including the working-scale boost of the mixed chain
// (see ckks.Table2Literal) — in seconds. 2^11 slots factor into
// radix-16/16/8 stages; L=16 covers the staged MinLevels budget of 15 with
// one working level to spare. The bootstrap section starts at
// stcLevel+1 = (16-3-1-7)+1 = 6 (degree-63 sine, chebDepth 7).
func table2SmokeLiteral() (ckks.ParametersLiteral, ckks.BootstrapParams, params.Instance) {
	logQ := []int{55}
	for lvl := 1; lvl <= 16; lvl++ {
		if lvl >= 6 {
			logQ = append(logQ, 55)
		} else {
			logQ = append(logQ, 45)
		}
	}
	lit := ckks.ParametersLiteral{
		LogN: 12, LogQ: logQ, LogP: 55, Dnum: 2, LogScale: 45, H: 8,
	}
	bp := ckks.BootstrapParams{K: 6, SineDegree: 63, CtSStages: 3, StCStages: 3}
	inst := params.Instance{Name: "table2-smoke", LogN: 12, L: 16, Dnum: 2,
		LogQ0: 55, LogQi: 45, LogP: 55}
	return lit, bp, inst
}

// table2Bench runs the Montgomery kernel sweep and the S=3 factored
// bootstrap (plus, with scaling, the 1/2/4/8-worker scaling table), printing
// the JSON report and exiting non-zero if any gate fails: Montgomery geomean
// < 1.3×, telemetry overhead > 2%, bootstrap precision out of budget, no
// working level left, or — full mode on a ≥ 8-CPU host — the 8-worker
// bootstrap under 4× the 1-worker time.
func table2Bench(workers int, full, scaling bool) {
	rep, err := runTable2Bench(workers, full, scaling)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table2 bench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "table2 bench: contract violated (kernel speedup, scaling, precision, or level budget)")
		os.Exit(1)
	}
}

func runTable2Bench(workers int, full, scaling bool) (*table2Report, error) {
	var (
		lit  ckks.ParametersLiteral
		bp   ckks.BootstrapParams
		inst params.Instance
		mode string
	)
	if full {
		lit, bp, inst, mode = ckks.Table2Literal(), ckks.Table2BootstrapParams(), params.INS1, "full"
	} else {
		lit, bp, inst = table2SmokeLiteral()
		mode = "smoke"
	}
	p, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	ctx.SetWorkers(workers)

	rep := &table2Report{
		Experiment: "table2",
		Mode:       mode,
		Workers:    workers,
		HostCPUs:   runtime.NumCPU(),
		Params: map[string]any{
			"logN":       p.LogN,
			"L":          p.MaxLevel(),
			"dnum":       p.Dnum,
			"slots":      p.Slots(),
			"H":          p.H,
			"log_scale":  lit.LogScale,
			"cts_stages": bp.CtSStages,
			"stc_stages": bp.StCStages,
			"sine_deg":   bp.SineDegree,
		},
		Pass: true,
	}

	// ---- Kernel sweep: Montgomery production kernels vs Barrett reference.
	rep.Kernels = kernelSweep(ctx.RingQ, p.MaxLevel())
	logSum := 0.0
	for _, k := range rep.Kernels {
		logSum += math.Log(k.Speedup)
	}
	rep.GeomeanSpeedup = math.Exp(logSum / float64(len(rep.Kernels)))

	// ---- Telemetry overhead: re-run the Montgomery sweep with engine and
	// pool counters attached and compare geomeans.
	rep.TelemetryOverhead = telemetryOverhead(ctx, p.MaxLevel())

	// ---- S=3 factored bootstrap at the instance parameters.
	kg := ckks.NewKeyGenerator(ctx, 9301)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	encoder := ckks.NewEncoder(ctx)
	enc := ckks.NewEncryptorSK(ctx, sk, 9302)
	dec := ckks.NewDecryptor(ctx, sk)

	// Probe bootstrapper only to learn the staged rotation set.
	probe := ckks.NewEvaluator(ctx, encoder, rlk, nil)
	bt0, err := ckks.NewBootstrapper(ctx, encoder, probe, bp)
	if err != nil {
		return nil, err
	}
	rots := bt0.Rotations()
	rtks := kg.GenRotationKeys(sk, rots, true)
	eval := ckks.NewEvaluator(ctx, encoder, rlk, rtks)
	bt, err := ckks.NewBootstrapper(ctx, encoder, eval, bp)
	if err != nil {
		return nil, err
	}

	ctsChain, stcChain := bt.Chains()
	rep.Bootstrap.CtSDiags = ctsChain.DiagCounts()
	rep.Bootstrap.StCDiags = stcChain.DiagCounts()
	rep.Bootstrap.RotationKeys = len(rots)
	// +2: the relinearization and conjugation keys share the evk shape.
	rep.Bootstrap.KeySetMiB = float64(len(rots)+2) * float64(inst.EvkBytesMax()) / (1 << 20)

	rng := rand.New(rand.NewSource(9303))
	n := p.Slots()
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1) * 0.7
	}
	pt, err := encoder.Encode(values, 0, p.Scale)
	if err != nil {
		return nil, err
	}
	ct, err := enc.EncryptNew(pt)
	if err != nil {
		return nil, err
	}

	// One timed run doubles as the correctness run: at the paper instance a
	// single bootstrap is minutes of work, so best-of-k timing is not worth
	// the wall-clock (the smoke instance inherits the same protocol so both
	// modes report comparable numbers).
	eval.ResetCounters()
	start := time.Now()
	out, err := bt.Bootstrap(ct)
	if err != nil {
		return nil, err
	}
	rep.Bootstrap.TimeMs = time.Since(start).Seconds() * 1e3
	ph := bt.LastPhases()
	rep.Bootstrap.Phases = table2Phases{
		ModRaiseMs:    ph.ModRaise.Seconds() * 1e3,
		CoeffToSlotMs: ph.CoeffToSlot.Seconds() * 1e3,
		EvalModMs:     ph.EvalMod.Seconds() * 1e3,
		SlotToCoeffMs: ph.SlotToCoeff.Seconds() * 1e3,
	}
	ops := eval.Counters()
	rep.Bootstrap.Mult = ops.Mult
	rep.Bootstrap.FullRot = ops.FullRot
	rep.Bootstrap.HoistedRot = ops.HoistedRot
	rep.Bootstrap.Decompose = ops.Decompose
	rep.Bootstrap.ModDown = ops.ModDown
	rep.Bootstrap.KeySwitchTotal = ops.KeySwitchTotal()
	rep.Bootstrap.Level = out.Level
	rep.Bootstrap.MaxErr = maxAbsErrC(encoder.Decode(dec.DecryptNew(out)), values)
	ctx.PutCiphertext(out)

	// Calibration cross-check against the simulator's bootstrap trace.
	chebDepth := 1
	for 1<<(chebDepth-1) < bp.SineDegree+1 {
		chebDepth++
	}
	shape := workload.BootstrapShape{
		CtSStages:    rep.Bootstrap.CtSDiags,
		StCStages:    rep.Bootstrap.StCDiags,
		SineDegree:   bp.SineDegree,
		EvalModDepth: chebDepth,
	}
	mix := sim.MeasuredOpMix{
		Mult:       rep.Bootstrap.Mult,
		FullRot:    rep.Bootstrap.FullRot,
		HoistedRot: rep.Bootstrap.HoistedRot,
		Decompose:  rep.Bootstrap.Decompose,
	}
	rep.Calibration = sim.CrossCheckBootstrap(workload.BootstrapTrace(inst, shape), mix, 0)

	const errBudget = 2e-2

	// ---- Worker-scaling table: the same bootstrap at 1/2/4/8 workers.
	// Workers beyond the host's cores still run (the engine oversubscribes
	// harmlessly), so the table is always complete; the ≥4× gate below only
	// arms where the hardware can deliver it.
	if scaling {
		for _, w := range []int{1, 2, 4, 8} {
			ctx.SetWorkers(w)
			pt, err := encoder.Encode(values, 0, p.Scale)
			if err != nil {
				return nil, err
			}
			ct, err := enc.EncryptNew(pt)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			out, err := bt.Bootstrap(ct)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start).Seconds() * 1e3
			entry := scalingEntry{
				Workers:     w,
				BootstrapMs: elapsed,
				Speedup:     1,
				MaxErr:      maxAbsErrC(encoder.Decode(dec.DecryptNew(out)), values),
			}
			ctx.PutCiphertext(out)
			if len(rep.Scaling) > 0 {
				entry.Speedup = rep.Scaling[0].BootstrapMs / elapsed
			}
			rep.Scaling = append(rep.Scaling, entry)
			if entry.MaxErr > errBudget {
				rep.Pass = false
			}
		}
		ctx.SetWorkers(workers)
	}

	// Gates: the Montgomery core must clear 1.3× geomean over the Barrett
	// loops, telemetry must not cost more than 2% on the same kernels, the
	// refreshed ciphertext must decode within the precision budget at every
	// worker count, at least one working level must remain after refresh, and
	// — on a host that can actually deliver it — the 8-worker bootstrap must
	// land ≥ 4× under the 1-worker time.
	if rep.GeomeanSpeedup < 1.3 {
		rep.Pass = false
	}
	if rep.TelemetryOverhead > 0.02 {
		rep.Pass = false
	}
	if rep.Bootstrap.MaxErr > errBudget {
		rep.Pass = false
	}
	if rep.Bootstrap.Level < 1 {
		rep.Pass = false
	}
	if scaling && full && runtime.NumCPU() >= 8 {
		for _, e := range rep.Scaling {
			if e.Workers == 8 && e.Speedup < 4 {
				rep.Pass = false
			}
		}
	}
	return rep, nil
}

// telemetryOverhead measures what attaching engine/pool telemetry costs the
// Montgomery kernels: a detached and an attached sweep run back to back (a
// fresh baseline each round — the initial report sweep is cold-cache biased)
// and the geomean ratio of their per-kernel times is the overhead. Best-of-3
// timing damps most scheduler noise; one retry keeps a single noisy sweep
// from failing the ≤2% gate on instrumentation that is genuinely a
// nil-check deep. The counters are detached before returning so the
// bootstrap measurement below runs exactly as serving does with metrics
// off.
func telemetryOverhead(ctx *ckks.Context, level int) float64 {
	var st telemetry.ContextStats
	defer ctx.SetStats(nil)
	best := math.Inf(1)
	for attempt := 0; attempt < 2; attempt++ {
		ctx.SetStats(nil)
		base := kernelSweep(ctx.RingQ, level)
		ctx.SetStats(&st)
		instr := kernelSweep(ctx.RingQ, level)
		logSum := 0.0
		for i := range instr {
			logSum += math.Log(instr[i].MontgomeryMs / base[i].MontgomeryMs)
		}
		if overhead := math.Exp(logSum/float64(len(instr))) - 1; overhead < best {
			best = overhead
		}
		if best <= 0.02 {
			break
		}
	}
	return best
}

// kernelSweep times each multiplicative ring kernel at the chain's top level
// in both domains. Operand bit patterns are uniform either way (x ↦ xR is a
// bijection), so the same polynomials serve both paths; timing is best-of-3
// after one warm-up.
func kernelSweep(r *ring.Ring, level int) []kernelResult {
	rng := rand.New(rand.NewSource(9304))
	a := r.NewPolyLevel(level)
	b := r.NewPolyLevel(level)
	out := r.NewPolyLevel(level)
	r.SampleUniform(rng, a, level)
	r.SampleUniform(rng, b, level)
	scratch := r.CopyNew(a, level)

	best := func(f func()) float64 {
		bestMs := 0.0
		f() // warm-up: twiddle/reference tables, pools
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if el := time.Since(start).Seconds() * 1e3; bestMs == 0 || el < bestMs {
				bestMs = el
			}
		}
		return bestMs
	}

	kernels := []struct {
		name       string
		mont, barr func()
	}{
		{"NTT",
			func() { r.NTT(scratch, level) },
			func() { r.NTTBarrett(scratch, level) }},
		{"INTT",
			func() { r.INTT(scratch, level) },
			func() { r.INTTBarrett(scratch, level) }},
		{"MulCoeffs",
			func() { r.MulCoeffs(a, b, out, level) },
			func() { r.MulCoeffsBarrett(a, b, out, level) }},
		{"MulCoeffsAndAdd",
			func() { r.MulCoeffsAndAdd(a, b, out, level) },
			func() { r.MulCoeffsAndAddBarrett(a, b, out, level) }},
		{"MulScalar",
			func() { r.MulScalar(a, 12345, out, level) },
			func() { r.MulScalarBarrett(a, 12345, out, level) }},
	}
	res := make([]kernelResult, 0, len(kernels))
	for _, k := range kernels {
		m := best(k.mont)
		bb := best(k.barr)
		row := kernelResult{Kernel: k.name, MontgomeryMs: m, BarrettMs: bb, Speedup: bb / m}
		if k.name == "NTT" || k.name == "INTT" {
			row.NsPerButterfly, row.EffectiveGBs = butterflyMetrics(r, level, m)
		}
		res = append(res, row)
	}
	return res
}

// butterflyMetrics normalizes a full-transform time (all level+1 limbs) by
// the radix-2-equivalent work: (N/2)·log2(N) butterflies per limb, and the
// algorithmic stream traffic of one 8-byte load plus one store per
// coefficient per radix-2 stage. Both are *algorithmic* counts — the fused
// radix-4 kernels do the same butterflies with half the memory passes, which
// is exactly what these normalized figures are meant to surface.
func butterflyMetrics(r *ring.Ring, level int, ms float64) (nsPerBfly, gbps float64) {
	butterflies := float64(level+1) * float64(r.N/2) * float64(r.LogN)
	bytes := 16 * float64(r.N) * float64(level+1) * float64(r.LogN)
	return ms * 1e6 / butterflies, bytes / (ms * 1e-3) / 1e9
}
