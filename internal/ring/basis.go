package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"bts/internal/mod"
)

// BasisExtender implements the fast RNS base conversion BConv (Eq. 9 of the
// paper): given the residues of x over a source base {q_j}, it produces the
// residues over a target base {p_i} of a value congruent to x plus a small
// multiple of Q (the classic approximate conversion, whose overflow is
// absorbed by key-switching noise).
//
// The first stage multiplies each source residue by (Q/q_j)^-1 mod q_j (the
// BConvU's ModMult in Section 5.2); the second stage is the coefficient-wise
// multiply-accumulate Σ_j f(y_j)·(Q/q_j) mod p_i (the MMAU), where f takes
// the *centered* representative f(y) = y - q_j·[y > q_j/2]. The centered
// form keeps the conversion overflow in (-nf/2·Q, nf/2·Q) instead of
// [0, nf·Q) and — crucially for hoisted key-switching — makes the conversion
// exactly negation-equivariant: Convert(-x) = -Convert(x) residue for
// residue, so the Galois automorphism (a signed coefficient permutation)
// commutes bit-exactly with ModUp. Since Σ_j f(y_j)·(Q/q_j) = Σ_j
// y_j·(Q/q_j) - c·Q with c the number of digits above half, the centering
// is one correction c·[-Q]_{p_i} per target coefficient: stage 1 counts c
// once per conversion and stage 2 is a plain, branch-free multiply-
// accumulate. Both stages fan out across the attached execution engine —
// stage 1 over coefficient blocks (each task owns its block of c), stage 2
// over target limbs × coefficient blocks (the 2-D sharding keeps short bases
// parallel, see Engine.RunBlocks) — and the stage-1 intermediates live in a
// sync.Pool so repeated conversions allocate nothing.
type BasisExtender struct {
	from, to []*Modulus

	// qhatInv is stored as a plain (non-Montgomery) constant on purpose: the
	// stage-1 input is in M-form, so the fused REDC product
	// REDC(x·R · (Q/q_j)^-1) is the *true* digit y_j — exactly what stage 2
	// needs, since the centered y_j crosses moduli as an integer. The stage-2
	// tables are the opposite: qhatTo and negQTo carry the target-modulus
	// M-form, so the Barrett fold of the 128-bit sum Σ y_j·[Q/q_j]·R lands
	// directly in Montgomery form over the target base.
	qhatInv  []uint64   // [(Q/q_j)^-1]_{q_j}, plain form
	qhatTo   [][]uint64 // qhatTo[j][i] = [Q/q_j]·R mod to[i].Q (M-form)
	halfFrom []uint64   // (q_j-1)/2, the centering threshold per source limb
	negQTo   []uint64   // [-Q]·R mod to[i].Q (M-form), the centering correction

	// lazyStage2 selects the 128-bit lazy accumulation in stage 2; it is
	// cleared at construction when the unreduced sum — nf products
	// y_j·qhatTo[j][i] plus the hoisted correction c·negQTo[i], c ≤ nf —
	// could overflow 128 bits (very wide moduli × very long source bases),
	// falling back to per-term modular reduction.
	lazyStage2 bool

	exec    *Engine
	scratch sync.Pool // *convScratch, the stage-1 rows
	accPool sync.Pool // *[]uint64, per-task stage-2 accumulator blocks
}

// convScratch is a pooled block of len(from) stage-1 rows plus the
// per-coefficient correction count, backed by one contiguous buffer.
type convScratch struct {
	backing []uint64
	rows    [][]uint64
	count   []uint64
}

// NewBasisExtender precomputes the conversion tables from the source to the
// target base. The bases must be disjoint prime sets. The extender starts on
// the shared DefaultEngine; use SetEngine to attach a specific pool.
func NewBasisExtender(from, to []*Modulus) (*BasisExtender, error) {
	if len(from) == 0 || len(to) == 0 {
		return nil, fmt.Errorf("ring: empty basis in BasisExtender")
	}
	seen := map[uint64]bool{}
	for _, m := range from {
		seen[m.Q] = true
	}
	for _, m := range to {
		if seen[m.Q] {
			return nil, fmt.Errorf("ring: bases overlap at modulus %d", m.Q)
		}
	}
	q := big.NewInt(1)
	for _, m := range from {
		q.Mul(q, new(big.Int).SetUint64(m.Q))
	}
	be := &BasisExtender{
		from:     from,
		to:       to,
		qhatInv:  make([]uint64, len(from)),
		qhatTo:   make([][]uint64, len(from)),
		halfFrom: make([]uint64, len(from)),
		negQTo:   make([]uint64, len(to)),
		exec:     DefaultEngine(),
	}
	tmp := new(big.Int)
	for j, m := range from {
		qj := new(big.Int).SetUint64(m.Q)
		qhat := new(big.Int).Quo(q, qj)
		inv := new(big.Int).ModInverse(tmp.Mod(qhat, qj), qj)
		be.qhatInv[j] = inv.Uint64()
		be.qhatTo[j] = make([]uint64, len(to))
		for i, mt := range to {
			be.qhatTo[j][i] = mt.MRed.MForm(tmp.Mod(qhat, new(big.Int).SetUint64(mt.Q)).Uint64())
		}
		be.halfFrom[j] = m.Q >> 1
	}
	maxFrom, maxTo := uint64(0), uint64(0)
	for _, m := range from {
		if m.Q > maxFrom {
			maxFrom = m.Q
		}
	}
	for i, mt := range to {
		qmod := tmp.Mod(q, new(big.Int).SetUint64(mt.Q)).Uint64()
		be.negQTo[i] = mt.MRed.MForm(mod.Neg(qmod, mt.Q))
		if mt.Q > maxTo {
			maxTo = mt.Q
		}
	}
	// Lazy stage 2 sums nf products y·qh ≤ (q_src-1)(q_tgt-1) and one
	// correction c·negQ ≤ nf·(q_tgt-1), in all at most nf·q_src·(q_tgt-1)
	// < nf·q_src·q_tgt; verify that fits 128 bits, else keep the per-term
	// reduced loop.
	bound := new(big.Int).SetUint64(maxFrom)
	bound.Mul(bound, new(big.Int).SetUint64(maxTo))
	bound.Mul(bound, big.NewInt(int64(len(from))))
	limit := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1))
	be.lazyStage2 = bound.Cmp(limit) <= 0
	return be, nil
}

// SetEngine attaches an execution engine (nil reverts to serial). Ownership
// stays with the caller, exactly as for Ring.SetEngine.
func (be *BasisExtender) SetEngine(e *Engine) { be.exec = e }

// getScratch borrows a stage-1 block with nf rows and a count row, each of
// length n.
func (be *BasisExtender) getScratch(nf, n int) *convScratch {
	s, _ := be.scratch.Get().(*convScratch)
	if s == nil || cap(s.backing) < (nf+1)*n {
		s = &convScratch{backing: make([]uint64, (nf+1)*n), rows: make([][]uint64, nf)}
	}
	for j := 0; j < nf; j++ {
		s.rows[j] = s.backing[j*n : (j+1)*n : (j+1)*n]
	}
	s.count = s.backing[nf*n : (nf+1)*n : (nf+1)*n]
	return s
}

// Convert performs the base conversion on coefficient-domain rows. in must
// hold len(from) rows; out receives len(to) rows. Rows are length-N slices.
//
// Stage 2 uses the centered representative of each stage-1 residue: when
// y_j > q_j/2 the term contributes (y_j - q_j)·(Q/q_j) = y_j·(Q/q_j) - Q, so
// target limb i gets the correction [-Q]_{p_i} once per such digit. The
// number of corrections c(k) = #{j : y_j(k) > (q_j-1)/2} is the same for
// every target limb, so stage 1 counts it (branch-free, from the borrow of
// (q_j-1)/2 - y_j) and stage 2 adds c(k)·[-Q]_{p_i} once per target
// coefficient, keeping data-dependent branches out of its inner loop: on
// uniform digits such a branch mispredicts about half the time. This makes
// Convert(-x) bit-identical to -Convert(x) (f(q_j - y) = -f(y) exactly for
// odd q_j), the property the hoisted key-switch relies on to permute
// decomposed slices instead of re-decomposing permuted ciphertexts.
func (be *BasisExtender) Convert(in, out [][]uint64) {
	nf, nt := len(be.from), len(be.to)
	if len(in) < nf || len(out) < nt {
		panic("ring: BasisExtender.Convert: row count mismatch")
	}
	n := len(in[0])
	scratch := be.getScratch(nf, n)
	stage1 := scratch.rows[:nf]
	count := scratch.count
	// Stage 1: y_j = [x_j * (Q/q_j)^-1]_{q_j} and the correction count c,
	// sharded over coefficient blocks (each task runs every source limb of
	// its block, so it owns that block of c). The input residues are in
	// M-form and qhatInv is plain, so the fused REDC strips the R factor and
	// the digits come out as true residues.
	be.exec.RunBlocks(1, n, func(_, lo, hi int) {
		cnt := count[lo:hi:hi]
		for k := range cnt {
			cnt[k] = 0
		}
		for j := 0; j < nf; j++ {
			mr := be.from[j].MRed
			w := be.qhatInv[j]
			halfJ := be.halfFrom[j]
			row := stage1[j][lo:hi:hi]
			src := in[j][lo:hi:hi]
			src = src[:len(row)]
			c := cnt[:len(row)]
			for k := range row {
				y := mr.Mul(src[k], w)
				row[k] = y
				_, above := bits.Sub64(halfJ, y, 0)
				c[k] += above
			}
		}
	})
	// Stage 2: out_i = Σ_j y_j * [Q/q_j]_{p_i} + c * [-Q]_{p_i} (coefficient-
	// wise MAC), sharded over target limbs × coefficient blocks; every task
	// reads the same coefficient range of all stage-1 rows, and the barrier
	// between the two RunBlocks calls is the stage-1/stage-2 dependency. The
	// MAC iterates source limbs outer, coefficient inner, folding stage-1
	// rows into a pooled per-task accumulator block: every slice is
	// walked contiguously with a shared induction variable, so the inner
	// loops carry no bounds checks and no branches. Normally the sum is
	// accumulated lazily in 128 bits per coefficient (planar: low words then
	// high words, seeded with the correction c·[-Q]_{p_i}) and reduced once
	// (mod.Reduce128 takes arbitrary 128-bit inputs; lazyStage2 certifies
	// the worst case cannot overflow). 128-bit accumulation is exact, so the
	// summation order is immaterial and the result is the canonical residue
	// of the centered sum; pathologically wide bases take the reduced
	// per-term path, which adds the same correction once per coefficient.
	be.exec.RunBlocks(nt, n, func(i, lo, hi int) {
		br := be.to[i].BRed
		qi := be.to[i].Q
		negQ := be.negQTo[i]
		w := hi - lo
		bp, _ := be.accPool.Get().(*[]uint64)
		if bp == nil || cap(*bp) < 2*w {
			b := make([]uint64, 2*w)
			bp = &b
		}
		buf := (*bp)[:cap(*bp)]
		cnt := count[lo:hi:hi]
		dst := out[i][lo:hi:hi]
		if be.lazyStage2 {
			aLo := buf[0:w:w]
			aHi := buf[w : 2*w : 2*w]
			aHi = aHi[:len(aLo)]
			cnt = cnt[:len(aLo)]
			for k := range aLo {
				aHi[k], aLo[k] = bits.Mul64(cnt[k], negQ)
			}
			// Two source rows per sweep halve the accumulator traffic;
			// an odd last row takes the one-row sweep.
			j := 0
			for ; j+1 < nf; j += 2 {
				y0 := stage1[j][lo:hi:hi]
				y1 := stage1[j+1][lo:hi:hi]
				q0 := be.qhatTo[j][i]
				q1 := be.qhatTo[j+1][i]
				y0 = y0[:len(aLo)]
				y1 = y1[:len(aLo)]
				for k := range aLo {
					h0, l0 := bits.Mul64(y0[k], q0)
					h1, l1 := bits.Mul64(y1[k], q1)
					l, c0 := bits.Add64(aLo[k], l0, 0)
					l, c1 := bits.Add64(l, l1, 0)
					aLo[k] = l
					aHi[k] += h0 + h1 + c0 + c1
				}
			}
			if j < nf {
				y := stage1[j][lo:hi:hi]
				qh := be.qhatTo[j][i]
				y = y[:len(aLo)]
				for k := range y {
					pHi, pLo := bits.Mul64(y[k], qh)
					var c uint64
					aLo[k], c = bits.Add64(aLo[k], pLo, 0)
					aHi[k] += pHi + c
				}
			}
			dst = dst[:len(aLo)]
			for k := range dst {
				dst[k] = br.Reduce128(aHi[k], aLo[k])
			}
			be.accPool.Put(bp)
			return
		}
		acc := buf[0:w:w]
		cnt = cnt[:len(acc)]
		for k := range acc {
			acc[k] = br.Mul(cnt[k], negQ)
		}
		for j := 0; j < nf; j++ {
			y := stage1[j][lo:hi:hi]
			qh := be.qhatTo[j][i]
			y = y[:len(acc)]
			for k := range y {
				acc[k] = mod.Add(acc[k], br.Mul(y[k], qh), qi)
			}
		}
		dst = dst[:len(acc)]
		copy(dst, acc)
		be.accPool.Put(bp)
	})
	be.scratch.Put(scratch)
}

// DivRoundByLastModulusNTT divides p (rows [0..level], NTT domain) by the
// last prime q_level with rounding and drops that row: the HRescale
// operation of Section 2.4. On return, rows [0..level-1] hold the rescaled
// polynomial in the NTT domain.
//
// The operation runs as four engine passes so every phase stays parallel
// even at the lowest levels, where limb-only dispatch would leave most of
// the pool idle: (1) the dropped limb's iNTT (stage-sharded when one row
// cannot fill the pool), (2) the centered-lift reduction of every remaining
// limb (limb × coefficient-block sharded), (3) the forward NTT of the
// correction rows (limb- or stage-sharded), and (4) the fused
// subtract-scale by q_level^-1 (limb × coefficient-block sharded).
func (r *Ring) DivRoundByLastModulusNTT(p *Poly, level int) {
	if level == 0 {
		panic("ring: cannot rescale below level 0")
	}
	mL := r.Moduli[level]
	qL := mL.Q
	half := qL >> 1

	// Bring the dropped residue to the coefficient domain.
	last := r.GetRow()
	defer r.PutRow(last)
	copy(last, p.Coeffs[level])
	r.inttRows([][]uint64{last}, []*Modulus{mL})

	// Strip the Montgomery factor off the dropped residue — the rounding
	// lift below reduces it modulo every *other* prime, which is only
	// meaningful for the true integer — and pre-add q_L/2 so the subsequent
	// per-prime reduction realizes a centered (rounding) lift, not a floor.
	mrL := mL.MRed
	r.exec.RunBlocks(1, r.N, func(_, lo, hi int) {
		seg := last[lo:hi:hi]
		for j := range seg {
			seg[j] = mod.Add(mrL.IForm(seg[j]), half, qL)
		}
	})

	tmp := r.GetPolyNoZero()
	r.exec.RunBlocks(level, r.N, func(i, lo, hi int) {
		mi := r.Moduli[i]
		halfModQi := r.rescaleHalf[level][i]
		row := tmp.Coeffs[i][lo:hi:hi]
		src := last[lo:hi:hi]
		src = src[:len(row)]
		// The correction rows re-enter the M-form world here, so the fused
		// subtract-scale pass below stays a pure M-form kernel.
		for j := range row {
			row[j] = mi.MRed.MForm(mod.Sub(mi.BRed.Reduce(src[j]), halfModQi, mi.Q))
		}
	})
	r.nttRows(tmp.Coeffs[:level], r.Moduli[:level])
	r.exec.RunBlocks(level, r.N, func(i, lo, hi int) {
		qi := r.Moduli[i].Q
		qInv := r.rescaleQInv[level][i]
		qInvShoup := r.rescaleQInvShoup[level][i]
		row := p.Coeffs[i][lo:hi:hi]
		t := tmp.Coeffs[i][lo:hi:hi]
		t = t[:len(row)]
		for j := range row {
			row[j] = mod.MulShoup(mod.Sub(row[j], t[j], qi), qInv, qInvShoup, qi)
		}
	})
	r.PutPoly(tmp)
}
