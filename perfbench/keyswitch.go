package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"time"

	"bts/internal/ckks"
	"bts/internal/telemetry"
)

// ksTolerance bounds the circuit output's maximum absolute error against the
// complex128 slot-arithmetic reference. Slot values stay of order 1, and a
// 2^45 scale leaves the circuit's accumulated error near 2^-25.
const ksTolerance = 1e-3

// ksLiteral is the keyswitch-n15 instance: N=2^15, L=12, dnum=1 as in the
// Table 2 instance, a 55-bit base prime under 45-bit scale primes. One
// polynomial at the top level is 13 limbs, 3.25 MiB, and the key-switch
// operand in the extended basis 6.5 MiB: both past a core's 2 MiB L2.
func ksLiteral(toy bool) ckks.ParametersLiteral {
	logQ := []int{55}
	for i := 0; i < 12; i++ {
		logQ = append(logQ, 45)
	}
	logN := 15
	if toy {
		logN = 11
	}
	return ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: 55, Dnum: 1, LogScale: 45, H: 192}
}

// ksState is a ready keyswitch-n15 workload.
type ksState struct {
	ctx     *ckks.Context
	encoder *ckks.Encoder
	dec     *ckks.Decryptor
	ev      *ckks.Evaluator
	x, y    *ckks.Ciphertext // circuit input and per-level multiplicand, top level
	want    []complex128     // the circuit's reference output
}

func setupKeySwitch(cfg config) (*ksState, error) {
	p, err := ckks.NewParameters(ksLiteral(cfg.toy))
	if err != nil {
		return nil, err
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		return nil, err
	}
	ctx.SetWorkers(engineWorkers)
	kg := ckks.NewKeyGenerator(ctx, cfg.seed*1000+11)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, opRotations(), false)
	st := &ksState{ctx: ctx, encoder: ckks.NewEncoder(ctx), dec: ckks.NewDecryptor(ctx, sk)}
	st.ev = ckks.NewEvaluator(ctx, st.encoder, rlk, rtks)
	enc := ckks.NewEncryptorSK(ctx, sk, cfg.seed*1000+12)

	// x is a smooth signal (a few low-frequency complex tones), so the
	// 5-tap rotation sum preserves its magnitude; y is 1/5 with a small
	// per-slot perturbation, so every level keeps slot values of order 1
	// while still testing slot-wise products.
	rng := rand.New(rand.NewSource(cfg.seed))
	slots := p.Slots()
	xv := make([]complex128, slots)
	for k := 0; k < 3; k++ {
		c := cmplx.Rect(0.3*(0.5+rng.Float64()), 2*math.Pi*rng.Float64())
		f := float64(k)
		for i := range xv {
			xv[i] += c * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)/float64(slots)))
		}
	}
	yv := make([]complex128, slots)
	for i := range yv {
		yv[i] = complex((1+0.1*(2*rng.Float64()-1))/5, 0)
	}
	for _, in := range []struct {
		vals []complex128
		ct   **ckks.Ciphertext
	}{{xv, &st.x}, {yv, &st.y}} {
		pt, err := st.encoder.Encode(in.vals, p.MaxLevel(), p.Scale)
		if err != nil {
			return nil, err
		}
		if *in.ct, err = enc.EncryptNew(pt); err != nil {
			return nil, err
		}
	}
	st.want = ksReference(xv, yv, p.MaxLevel())

	// The first MulRelin at each level is cold: it builds that level's
	// ModUp and ModDown basis extenders. One per level makes the state
	// ready, and its cost counts as setup.
	for l := p.MaxLevel(); l >= 1; l-- {
		x := st.x.CopyNew(ctx)
		x.DropLevel(l)
		m := st.ev.MulRelin(x, st.y)
		ctx.PutCiphertext(st.ev.Rescale(m))
		ctx.PutCiphertext(m)
		ctx.PutCiphertext(x)
	}
	return st, nil
}

// rotateSlots returns v rotated left by r slots.
func rotateSlots(v []complex128, r int) []complex128 {
	n := len(v)
	out := make([]complex128, n)
	for i := range out {
		out[i] = v[((i+r)%n+n)%n]
	}
	return out
}

// ksReference evaluates the circuit on plain slot vectors.
func ksReference(x, y []complex128, levels int) []complex128 {
	cur := append([]complex128(nil), x...)
	for l := levels; l >= 1; l-- {
		for i := range cur {
			cur[i] *= y[i]
		}
		sum := append([]complex128(nil), cur...)
		for _, r := range fanRotations {
			rot := rotateSlots(cur, r)
			for i := range sum {
				sum[i] += rot[i]
			}
		}
		cur = rotateSlots(sum, fullRotation)
	}
	return cur
}

// circuit runs the key-switch circuit from the top level down to level 0:
// at each level MulRelin by y, Rescale, a hoisted fan of four rotations
// summed with its input, then one full Rotate.
func (st *ksState) circuit(tr *tracer, req uint64) (*ckks.Ciphertext, error) {
	if tr == nil {
		tr = &tracer{}
	}
	root := tr.begin("bench.circuit", spanRef{}, req, noLevel)
	defer root.end()
	ctx, ev := st.ctx, st.ev
	x := st.x
	for l := x.Level; l >= 1; l-- {
		s := tr.begin("ckks.mulrelin", root, req, l)
		m := ev.MulRelin(x, st.y)
		s.end()
		s = tr.begin("ckks.rescale", root, req, l)
		r := ev.Rescale(m)
		s.end()
		ctx.PutCiphertext(m)
		if x != st.x {
			ctx.PutCiphertext(x)
		}
		s = tr.begin("ckks.rotfan4", root, req, l-1)
		fan := ev.RotateHoisted(r, fanRotations)
		s.end()
		s = tr.begin("ckks.add", root, req, l-1)
		sum := r
		for _, rot := range fanRotations {
			next := ev.Add(sum, fan[rot])
			ctx.PutCiphertext(sum)
			ctx.PutCiphertext(fan[rot])
			sum = next
		}
		s.end()
		s = tr.begin("ckks.rotate", root, req, l-1)
		x = ev.Rotate(sum, fullRotation)
		s.end()
		ctx.PutCiphertext(sum)
	}
	if x == st.x {
		return nil, fmt.Errorf("keyswitch-n15: input has no levels to consume")
	}
	return x, nil
}

// check decrypts a circuit output and compares it with the reference.
func (st *ksState) check(out *ckks.Ciphertext) (float64, error) {
	got := decoded(st.encoder.Decode(st.dec.DecryptNew(out)))
	e := maxAbsErr(got, st.want)
	if !(e <= ksTolerance) {
		return e, fmt.Errorf("circuit error %.3g over tolerance %.3g", e, ksTolerance)
	}
	return e, nil
}

func runKeySwitch(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	setupCount := rep.count("setup")
	var st *ksState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.ctx.Close()
			st = nil
			freeMemory()
		}
		sm, start := startSteal(), time.Now()
		s, err := setupKeySwitch(cfg)
		setupCount.Sent++
		if err != nil {
			setupCount.Failed++
			return nil, err
		}
		setups = append(setups, sm.unstolen(time.Since(start)).Seconds())
		setupCount.OK++
		st = s
	}
	defer st.ctx.Close()
	p := st.ctx.Params
	levels := p.MaxLevel()
	rep.shape = map[string]any{"N": p.N(), "L": levels, "dnum": p.Dnum, "slots": p.Slots(),
		"limb_mib_top": float64(p.N()*8*(levels+1)) / (1 << 20)}

	// measure runs circuits until the deadline (at least two), checking
	// every output outside the timed region. It returns circuit seconds.
	measure := func(phase string, until time.Time) ([]float64, error) {
		c := rep.count(phase)
		var out []float64
		for len(out) < 2 || time.Now().Before(until) {
			sm, start := startSteal(), time.Now()
			res, err := st.circuit(tr, uint64(len(out)+1))
			el := sm.unstolen(time.Since(start)).Seconds()
			c.Sent++
			if err != nil {
				c.Failed++
				return nil, err
			}
			e, err := st.check(res)
			if err != nil {
				c.Failed++
				fmt.Fprintf(os.Stderr, "keyswitch-n15: %v\n", err)
			} else {
				c.OK++
			}
			if prec := precBits(e); rep.endToEnd["prec_bits"] == 0 || prec < rep.endToEnd["prec_bits"] {
				rep.endToEnd["prec_bits"] = prec
			}
			st.ctx.PutCiphertext(res)
			out = append(out, el)
		}
		return out, nil
	}

	if !cfg.trace {
		secs, err := measure("measure", deadline(cfg, 1))
		if err != nil {
			return nil, err
		}
		total := 0.0
		for _, s := range secs {
			total += s
		}
		circ := median(secs)
		rep.endToEnd["setup_s"] = median(setups)
		rep.endToEnd["op_p50_ms"] = circ * 1e3
		rep.endToEnd["op_p90_ms"] = quantile(secs, 0.9) * 1e3
		rep.endToEnd["throughput_per_s"] = float64(len(secs)) / total
		rep.endToEnd["tmult_a_slot_ns"] = circ * 1e9 / float64(levels*p.Slots())
		return rep, nil
	}

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
	rep.perLayer["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	fillOpMetrics(tr, rep.perLayer)
	rep.perLayer["ckks.circuit.residue_frac"] = tr.residueFrac("bench.circuit")
	kernelSheet(st.ctx, cfg.seed, 15, rep.perLayer)
	wireSheet(st.ctx, st.x, 15, rep.perLayer)
	tr.setOn(false)
	st.ctx.SetStats(nil)
	rep.perLayer["ring.engine.speedup_2w"] = speedup2w(st.ctx, 1, func() {
		if out, err := st.circuit(nil, 0); err == nil {
			st.ctx.PutCiphertext(out)
		}
	})
	return rep, nil
}
