package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bts/internal/ckks"
	"bts/internal/telemetry"
)

// bootErrBudget is the table2 bootstrap precision budget; it also bounds the
// error after the working-level multiplications.
const bootErrBudget = 2e-2

// bootWorkLevels is how many levels the refreshed ciphertext keeps above
// the table2-smoke chain's one, so each iteration runs several
// MulRelin+Rescale steps after the bootstrap.
const bootWorkLevels = 3

// setupRepeats is how many times each workload builds its state from
// scratch; setup_s is the median. The last build is the one measured.
const setupRepeats = 3

// bootLiteral is the table2-smoke instance (LogN=12, S=3 CoeffToSlot and
// SlotToCoeff, degree-63 sine, 55-bit bootstrap section over a 45-bit
// multiplication section, dnum=2) with bootWorkLevels extra 45-bit levels,
// so a bootstrap refreshes to level 2+bootWorkLevels. The bootstrap section
// starts at stcLevel+1 = L-3-1-7+1.
func bootLiteral(toy bool) (ckks.ParametersLiteral, ckks.BootstrapParams) {
	L := 16 + bootWorkLevels
	logQ := []int{55}
	for lvl := 1; lvl <= L; lvl++ {
		if lvl >= 6+bootWorkLevels {
			logQ = append(logQ, 55)
		} else {
			logQ = append(logQ, 45)
		}
	}
	logN := 12
	if toy {
		logN = 10
	}
	lit := ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: 55, Dnum: 2, LogScale: 45, H: 8}
	return lit, ckks.BootstrapParams{K: 6, SineDegree: 63, CtSStages: 3, StCStages: 3}
}

// bootState is a ready boot-n12 workload.
type bootState struct {
	ctx     *ckks.Context
	encoder *ckks.Encoder
	dec     *ckks.Decryptor
	enc     *ckks.Encryptor
	ev      *ckks.Evaluator
	bt      *ckks.Bootstrapper
	ct0     *ckks.Ciphertext         // the level-0 input every iteration refreshes
	v       []complex128             // its message
	mul     map[int]*ckks.Ciphertext // working-level multiplicands by level
	want    []complex128             // v times every multiplicand
	coldMs  float64                  // the first (cold) bootstrap's time
	coldErr error                    // its failed check, if any
}

// bootIter is one measured iteration: a warm bootstrap, then
// MulRelin+Rescale at each working level down to level 0.
type bootIter struct {
	boot, mults time.Duration
	out, final  *ckks.Ciphertext
	phases      ckks.BootstrapPhases
	ops         ckks.OpCounters
}

func setupBoot(cfg config, extraRots []int) (*bootState, error) {
	lit, bp := bootLiteral(cfg.toy)
	p, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		return nil, err
	}
	ctx.SetWorkers(engineWorkers)
	kg := ckks.NewKeyGenerator(ctx, cfg.seed*1000+1)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	st := &bootState{ctx: ctx, encoder: ckks.NewEncoder(ctx), dec: ckks.NewDecryptor(ctx, sk),
		enc: ckks.NewEncryptorSK(ctx, sk, cfg.seed*1000+2), mul: map[int]*ckks.Ciphertext{}}
	probe := ckks.NewEvaluator(ctx, st.encoder, rlk, nil)
	bt0, err := ckks.NewBootstrapper(ctx, st.encoder, probe, bp)
	if err != nil {
		return nil, err
	}
	rtks := kg.GenRotationKeys(sk, append(bt0.Rotations(), extraRots...), true)
	st.ev = ckks.NewEvaluator(ctx, st.encoder, rlk, rtks)
	if st.bt, err = ckks.NewBootstrapper(ctx, st.encoder, st.ev, bp); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	slots := p.Slots()
	st.v = make([]complex128, slots)
	for i := range st.v {
		st.v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1) * 0.7
	}
	if st.ct0, err = st.encrypt(st.v, 0); err != nil {
		return nil, err
	}
	// Unit-modulus multiplicands keep the message bounded through the
	// working levels, so the final error stays comparable to the
	// bootstrap's.
	st.want = append([]complex128(nil), st.v...)
	for l := st.outLevel(); l >= 1; l-- {
		u := make([]complex128, slots)
		for i := range u {
			u[i] = cmplx.Exp(complex(0, 2*math.Pi*rng.Float64()))
			st.want[i] *= u[i]
		}
		if st.mul[l], err = st.encrypt(u, l); err != nil {
			return nil, err
		}
	}
	// The first bootstrap is cold: lazily built extender caches and pools
	// fill here, so its cost counts as setup.
	sm := startSteal()
	it, err := st.iterate(nil, 0)
	if err != nil {
		return nil, err
	}
	st.coldMs = ms(sm.unstolen(it.boot))
	if _, err := st.check(it); err != nil {
		st.coldErr = err
	}
	st.release(it)
	return st, nil
}

func (st *bootState) encrypt(vals []complex128, level int) (*ckks.Ciphertext, error) {
	pt, err := st.encoder.Encode(vals, level, st.ctx.Params.Scale)
	if err != nil {
		return nil, err
	}
	return st.enc.EncryptNew(pt)
}

// outLevel returns the level the bootstrap refreshes to.
func (st *bootState) outLevel() int {
	_, stc := st.bt.Chains()
	return stc.OutputLevel()
}

// iterate runs one iteration, recording spans when tr is on.
func (st *bootState) iterate(tr *tracer, req uint64) (*bootIter, error) {
	if tr == nil {
		tr = &tracer{}
	}
	it := &bootIter{}
	root := tr.begin("bench.iter", spanRef{}, req, noLevel)
	defer root.end()
	before := st.ev.Counters()
	bs := tr.begin("ckks.bootstrap", root, req, 0)
	start := time.Now()
	out, err := st.bt.Bootstrap(st.ct0)
	it.boot = time.Since(start)
	bs.end()
	if err != nil {
		return nil, err
	}
	it.ops = st.ev.Counters().Sub(before)
	it.phases = st.bt.LastPhases()
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"ckks.boot.mod_raise", it.phases.ModRaise},
		{"ckks.boot.cts", it.phases.CoeffToSlot},
		{"ckks.boot.eval_mod", it.phases.EvalMod},
		{"ckks.boot.stc", it.phases.SlotToCoeff},
	} {
		tr.child(ph.name, bs, at, ph.d)
		at = at.Add(ph.d)
	}
	it.out = out
	w := out.CopyNew(st.ctx)
	for l := out.Level; l >= 1; l-- {
		t0 := time.Now()
		s := tr.begin("work.mulrelin", root, req, l)
		m := st.ev.MulRelin(w, st.mul[l])
		s.end()
		s = tr.begin("work.rescale", root, req, l)
		r := st.ev.Rescale(m)
		s.end()
		it.mults += time.Since(t0)
		st.ctx.PutCiphertext(m)
		st.ctx.PutCiphertext(w)
		w = r
	}
	it.final = w
	return it, nil
}

// check verifies one iteration and returns the bootstrap's maximum error:
// the refreshed ciphertext decrypts to the input within the budget at
// level >= 1, and the working-level products decrypt to the
// slot-arithmetic reference within the same budget.
func (st *bootState) check(it *bootIter) (float64, error) {
	bootErr := maxAbsErr(decoded(st.encoder.Decode(st.dec.DecryptNew(it.out))), st.v)
	if it.out.Level < 1 {
		return bootErr, fmt.Errorf("refreshed level %d < 1", it.out.Level)
	}
	if !(bootErr <= bootErrBudget) {
		return bootErr, fmt.Errorf("bootstrap error %.3g over budget %.3g", bootErr, bootErrBudget)
	}
	got := decoded(st.encoder.Decode(st.dec.DecryptNew(it.final)))
	if e := maxAbsErr(got, st.want); !(e <= bootErrBudget) {
		return bootErr, fmt.Errorf("working-level error %.3g over budget %.3g", e, bootErrBudget)
	}
	return bootErr, nil
}

func (st *bootState) release(it *bootIter) {
	st.ctx.PutCiphertext(it.out)
	st.ctx.PutCiphertext(it.final)
}

// freeMemory returns garbage to the OS between set-up repeats so peak RSS
// reflects one live workload.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runBoot(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	var extra []int
	if cfg.trace {
		extra = opRotations()
	}
	setupCount := rep.count("setup")
	var st *bootState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.ctx.Close()
			st = nil
			freeMemory()
		}
		sm, start := startSteal(), time.Now()
		s, err := setupBoot(cfg, extra)
		setupCount.Sent++
		if err != nil {
			setupCount.Failed++
			return nil, err
		}
		setups = append(setups, sm.unstolen(time.Since(start)).Seconds())
		if s.coldErr != nil {
			setupCount.Failed++
			fmt.Fprintf(os.Stderr, "boot-n12: cold iteration: %v\n", s.coldErr)
		} else {
			setupCount.OK++
		}
		st = s
	}
	defer st.ctx.Close()
	p := st.ctx.Params
	slots := p.Slots()
	rep.shape = map[string]any{"N": p.N(), "L": p.MaxLevel(), "dnum": p.Dnum, "slots": slots,
		"work_levels": st.outLevel()}

	// measure runs iterations until the deadline (at least two), checking
	// every one outside its timed region.
	type sample struct{ boot, unit, tmult float64 }
	measure := func(phase string, until time.Time) ([]sample, error) {
		c := rep.count(phase)
		var out []sample
		for len(out) < 2 || time.Now().Before(until) {
			sm := startSteal()
			it, err := st.iterate(tr, uint64(len(out)+1))
			c.Sent++
			if err != nil {
				c.Failed++
				return nil, err
			}
			it.boot, it.mults = sm.unstolen(it.boot), sm.unstolen(it.mults)
			bootErr, err := st.check(it)
			if err != nil {
				c.Failed++
				fmt.Fprintf(os.Stderr, "boot-n12: %v\n", err)
			} else {
				c.OK++
			}
			unit := it.boot + it.mults
			out = append(out, sample{
				boot:  ms(it.boot),
				unit:  unit.Seconds(),
				tmult: float64(unit.Nanoseconds()) / float64(it.out.Level*slots),
			})
			if prec := precBits(bootErr); rep.endToEnd["prec_bits"] == 0 || prec < rep.endToEnd["prec_bits"] {
				rep.endToEnd["prec_bits"] = prec
			}
			rep.perLayer["ckks.boot.mult"] = float64(it.ops.Mult)
			rep.perLayer["ckks.boot.full_rot"] = float64(it.ops.FullRot)
			rep.perLayer["ckks.boot.hoisted_rot"] = float64(it.ops.HoistedRot)
			rep.perLayer["ckks.boot.decompose"] = float64(it.ops.Decompose)
			rep.perLayer["ckks.boot.mod_down"] = float64(it.ops.ModDown)
			rep.perLayer["ckks.boot.rescale"] = float64(it.ops.Rescale)
			rep.perLayer["ckks.boot.pmult"] = float64(it.ops.PMult)
			rep.perLayer["ckks.boot.key_switch"] = float64(it.ops.KeySwitchTotal())
			st.release(it)
		}
		return out, nil
	}
	col := func(ss []sample, f func(sample) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}

	if !cfg.trace {
		ss, err := measure("measure", deadline(cfg, 1))
		if err != nil {
			return nil, err
		}
		boots := col(ss, func(s sample) float64 { return s.boot })
		total := 0.0
		for _, s := range ss {
			total += s.unit
		}
		rep.endToEnd["setup_s"] = median(setups)
		rep.endToEnd["op_p50_ms"] = median(boots)
		rep.endToEnd["op_p90_ms"] = quantile(boots, 0.9)
		rep.endToEnd["throughput_per_s"] = float64(len(ss)) / total
		rep.endToEnd["tmult_a_slot_ns"] = median(col(ss, func(s sample) float64 { return s.tmult }))
		return rep, nil
	}

	// Traced run: an untraced segment, then a traced one with the engine
	// and pool counters attached.
	plain, err := measure("measure", deadline(cfg, 0.3))
	if err != nil {
		return nil, err
	}
	var stats telemetry.ContextStats
	st.ctx.SetStats(&stats)
	tr.setOn(true)
	before := snapContext(&stats)
	traced, err := measure("measure-traced", deadline(cfg, 0.4))
	if err != nil {
		return nil, err
	}
	snapContext(&stats).fill(before, len(traced), rep.perLayer)
	unitMed := func(ss []sample) float64 { return median(col(ss, func(s sample) float64 { return s.unit })) }
	rep.perLayer["bench.trace_overhead_frac"] = unitMed(traced)/unitMed(plain) - 1

	for _, ph := range []struct{ span, metric string }{
		{"ckks.boot.mod_raise", "ckks.boot.mod_raise_ms"},
		{"ckks.boot.cts", "ckks.boot.cts_ms"},
		{"ckks.boot.eval_mod", "ckks.boot.eval_mod_ms"},
		{"ckks.boot.stc", "ckks.boot.stc_ms"},
	} {
		rep.perLayer[ph.metric] = median(tr.durations(ph.span, anyLevel))
	}
	rep.perLayer["ckks.boot.residue_frac"] = tr.residueFrac("ckks.bootstrap")
	rep.perLayer["ckks.boot.cold_extra_ms"] = st.coldMs - median(col(plain, func(s sample) float64 { return s.boot }))
	rep.perLayer["ckks.mulrelin.work_ms"] = median(tr.durations("work.mulrelin", anyLevel))
	rep.perLayer["ckks.circuit.residue_frac"] = tr.residueFrac("bench.iter")

	top, err := st.encrypt(st.v, p.MaxLevel())
	if err != nil {
		return nil, err
	}
	opProbe(tr, st.ctx, st.ev, top, 3)
	fillOpMetrics(tr, rep.perLayer)
	kernelSheet(st.ctx, cfg.seed, 15, rep.perLayer)
	wireSheet(st.ctx, top, 15, rep.perLayer)
	tr.setOn(false)
	st.ctx.SetStats(nil)
	rep.perLayer["ring.engine.speedup_2w"] = speedup2w(st.ctx, 2, func() {
		it, err := st.iterate(nil, 0)
		if err == nil {
			st.release(it)
		}
	})
	return rep, nil
}
