package ckks

import "fmt"

// Reference oracles for the bootstrap's linear transforms. Production runs
// only the factored, double-hoisted pipeline; these slower forms pin it:
// the eager BSGS evaluation checks the hoisted LinearTransform, and the
// dense single-stage bootstrap matrices check the staged chains.

// linearTransformEager is the reference BSGS evaluation: every baby step is
// a full naive rotation (its own decomposition) and every diagonal product
// goes through a ModDown'd ciphertext. Results agree with LinearTransform up
// to the (smaller) deferred-ModDown rounding noise.
func linearTransformEager(ev *Evaluator, ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	ctx := ev.ctx
	byGiant, giants, need := lt.byGiantStep()
	// Baby-step rotations of the input.
	babies := map[int]*Ciphertext{}
	for b := range need {
		if b == 0 {
			babies[0] = ct
		} else {
			babies[b] = ev.Rotate(ct, b)
		}
	}

	var out *Ciphertext
	for _, g := range giants {
		var inner *Ciphertext
		for _, k := range byGiant[g] {
			term := ev.MulPlain(babies[k%lt.n1], lt.diags[k])
			if inner == nil {
				inner = term
			} else {
				ev.AddInPlace(inner, term)
				ctx.PutCiphertext(term)
			}
		}
		if g != 0 {
			rot := ev.Rotate(inner, g*lt.n1)
			ctx.PutCiphertext(inner)
			inner = rot
		}
		if out == nil {
			out = inner
		} else {
			ev.AddInPlace(out, inner)
			ctx.PutCiphertext(inner)
		}
	}
	for b, baby := range babies {
		if b != 0 {
			ctx.PutCiphertext(baby)
		}
	}
	return out
}

// transformChainEager is ev.TransformChain on the eager path: stage by
// stage, the eager BSGS evaluation followed by one rescale.
func transformChainEager(ev *Evaluator, ct *Ciphertext, tc *TransformChain) (*Ciphertext, error) {
	cur := ct
	for i, lt := range tc.Stages() {
		if cur.Level < lt.Level {
			return nil, fmt.Errorf("eager chain stage %d encoded at level %d, ciphertext at %d", i, lt.Level, cur.Level)
		}
		cur = ev.Rescale(linearTransformEager(ev, cur, lt))
	}
	return cur, nil
}

// bootstrapWith runs bt's pipeline with the two linear transforms replaced:
// ModRaise (with the working-scale boost), cts, the production evalMod
// leaving the ciphertext at stcLevel, then stc. The oracles below differ
// from Bootstrap only in these two transforms.
func bootstrapWith(bt *Bootstrapper, ev *Evaluator, ct *Ciphertext, stcLevel int,
	cts, stc func(*Ciphertext) (*Ciphertext, error)) (*Ciphertext, error) {
	if ct.Level != 0 {
		return nil, fmt.Errorf("oracle bootstrap expects a level-0 ciphertext, got level %d", ct.Level)
	}
	raised := bt.modRaise(ev, ct)
	if bt.scaleBoost > 1 {
		raised = ev.MulConst(raised, 1, bt.scaleBoost)
	}
	ctv, err := cts(raised)
	if err != nil {
		return nil, err
	}
	comb, err := bt.evalMod(ev, ctv, stcLevel)
	if err != nil {
		return nil, err
	}
	return stc(comb)
}

// bootstrapEager is Bootstrap with both of bt's own stage chains evaluated
// on the eager path.
func bootstrapEager(bt *Bootstrapper, ev *Evaluator, ct *Ciphertext) (*Ciphertext, error) {
	return bootstrapWith(bt, ev, ct, bt.stcLevel,
		func(c *Ciphertext) (*Ciphertext, error) { return transformChainEager(ev, c, bt.ctsChain) },
		func(c *Ciphertext) (*Ciphertext, error) { return transformChainEager(ev, c, bt.stcChain) })
}

// denseBootOracle holds the bootstrap's linear transforms in dense
// single-stage form: the special FFT probed column by column into full
// slots×slots matrices. Building it costs O(n²·log n) float work and O(n²)
// storage, which is fine at test slot counts only.
type denseBootOracle struct {
	cts *LinearTransform // CoeffToSlot: U^-1 · (Δ/q0), two-prime scale
	stc *LinearTransform // SlotToCoeff: U · (q0/Δ), one-prime scale
	// stcLevel is where the dense SlotToCoeff runs: the dense CoeffToSlot
	// consumes two levels, so L - 3 - EvalMod depth.
	stcLevel int
}

// newDenseBootOracle builds the dense matrices for bt's parameters. The
// dense SlotToCoeff does not shed a working-scale boost, so bt must run on
// a chain whose boost is 1.
func newDenseBootOracle(bt *Bootstrapper) (*denseBootOracle, error) {
	if bt.scaleBoost != 1 {
		return nil, fmt.Errorf("dense oracle needs scale boost 1, got %g", bt.scaleBoost)
	}
	p := bt.ctx.Params
	L := p.MaxLevel()
	n := p.Slots()
	q0 := float64(p.Q[0])
	delta := p.Scale
	chebDepth := bitsFor(bt.bp.SineDegree+1) + 1
	encoder := bt.encoder

	ctsCols := probeColumns(n, func(v []complex128) { encoder.fftSpecialInv(v) })
	stcCols := probeColumns(n, func(v []complex128) { encoder.fftSpecial(v) })

	ctsFactor := complex(delta/q0, 0)
	ctsDiags := MatrixFromFunc(n, func(r, c int) complex128 { return ctsCols[c][r] * ctsFactor }, 0)
	stcFactor := complex(q0/delta, 0)
	stcDiags := MatrixFromFunc(n, func(r, c int) complex128 { return stcCols[c][r] * stcFactor }, 0)

	// The Δ/q0 factor would starve a one-prime plaintext of precision, so
	// the dense CoeffToSlot is encoded at a two-prime scale.
	cts, err := NewLinearTransform(encoder, ctsDiags, L, float64(p.Q[L])*float64(p.Q[L-1]))
	if err != nil {
		return nil, err
	}
	o := &denseBootOracle{cts: cts, stcLevel: L - 3 - chebDepth}
	if o.stcLevel < 1 {
		return nil, fmt.Errorf("dense SlotToCoeff level %d too low", o.stcLevel)
	}
	if o.stc, err = NewLinearTransform(encoder, stcDiags, o.stcLevel, float64(p.Q[o.stcLevel])); err != nil {
		return nil, err
	}
	return o, nil
}

// probeColumns applies transform to each basis vector, returning columns.
func probeColumns(n int, transform func([]complex128)) [][]complex128 {
	cols := make([][]complex128, n)
	for k := 0; k < n; k++ {
		v := make([]complex128, n)
		v[k] = 1
		transform(v)
		cols[k] = v
	}
	return cols
}

// Rotations returns the rotation amounts the dense matrices need.
func (o *denseBootOracle) Rotations() []int {
	return dedupRotations(o.cts.Rotations(), o.stc.Rotations())
}

// bootstrap is Bootstrap with the dense single-stage transforms in place of
// the stage chains, both on the hoisted LinearTransform.
func (o *denseBootOracle) bootstrap(bt *Bootstrapper, ev *Evaluator, ct *Ciphertext) (*Ciphertext, error) {
	return bootstrapWith(bt, ev, ct, o.stcLevel,
		func(c *Ciphertext) (*Ciphertext, error) {
			return ev.Rescale(ev.Rescale(ev.LinearTransform(c, o.cts))), nil
		},
		func(c *Ciphertext) (*Ciphertext, error) {
			return ev.Rescale(ev.LinearTransform(c, o.stc)), nil
		})
}
