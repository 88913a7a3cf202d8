package ring

// NTT transforms rows [0..level] of p in place from coefficient domain to the
// NTT (evaluation) domain. The transform is the negacyclic number-theoretic
// transform: polynomial multiplication in R_q becomes element-wise
// multiplication of transformed rows (Section 4.1 of the paper).
//
// The implementation is the standard in-place Cooley–Tukey decimation-in-time
// network with twiddle factors stored in bit-reversed order, i.e. the exact
// butterfly the paper's NTTU executes (Butterfly_NTT: X' = X+W·Y, Y' = X-W·Y).
// Twiddles live in Montgomery form and every butterfly multiply is one lazy
// REDC (mod.Montgomery.MulLazy); because a REDC multiply by an M-form
// constant maps x ↦ x·w mod q regardless of x's own form, the network
// preserves the package's Montgomery-form invariant without any conversion.
//
// One kernel implements the network: fused radix-4 passes (nttPass), each
// merging two consecutive stages into one sweep of four-coefficient
// butterflies with one interleaved twiddle triple per group
// (Modulus.psiFused) and intermediates on a widened [0, 4q) lazy window —
// half the passes over the row (and with them the loads, stores and loop
// overhead) of a radix-2 network. An odd log2(N) adds one leading radix-2
// stage (nttHead), and a normalization sweep (nttNormalize) folds the window
// down to canonical residues. The plain-form Barrett loops of reference.go
// are the bit-identity oracle; they never run on the serving path.
//
// Dispatch is two-dimensional (Engine.RunBlocks), and both schedules call the
// same step functions, each a function of an index range [lo, hi). When the
// active rows alone can occupy the pool, each row runs every step over its
// full range as one task (the paper's limb-level parallelism). When they
// cannot — low-level ciphertexts, single-row transforms — every step is
// sharded into contiguous index blocks across all rows (the coefficient
// dimension of the PE grid) with a barrier between steps: the quartets of one
// pass touch disjoint coefficients, so they are order-independent, and the
// barrier preserves the network's data dependencies. That is ⌈log2(N)/2⌉ + 1
// barriers per transform, one per global exchange step of the PE grid. Both
// schedules run the same arithmetic on the same values, so their outputs are
// bit-identical.
func (r *Ring) NTT(p *Poly, level int) {
	r.nttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// INTT transforms rows [0..level] of p in place from the NTT domain back to
// the coefficient domain (Butterfly_iNTT: X' = X+Y, Y' = (X-Y)·W^-1, followed
// by scaling with N^-1), with the same kernel and dispatch as NTT: fused
// Gentleman–Sande passes (inttPass), then the odd-log2(N) radix-2 tail stage
// (inttTail), mirroring the forward network. The N^-1 scaling sweep
// (inttScale) doubles as the normalization: its REDC multiply reduces the
// lazy values to canonical residues.
func (r *Ring) INTT(p *Poly, level int) {
	r.inttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// NTTRow transforms a single residue polynomial at prime index i. A one-row
// call is the worst case for limb-only dispatch, so on a multi-worker engine
// it takes the sharded schedule whenever N/2 spans at least two blocks.
func (r *Ring) NTTRow(row []uint64, i int) {
	r.nttRows([][]uint64{row}, r.Moduli[i:i+1])
}

// INTTRow inverse-transforms a single residue polynomial at prime index i,
// sharded like NTTRow.
func (r *Ring) INTTRow(row []uint64, i int) {
	r.inttRows([][]uint64{row}, r.Moduli[i:i+1])
}

// nttRows forward-transforms rows[i] under moduli ms[i]: one nttRow task per
// row when the rows can fill the pool, otherwise one sharded dispatch per
// step. Every sharded step partitions the same index space [0, N/2) — the
// butterflies of one radix-2 stage — into blockCount(rows, N/2) blocks: the
// head stage takes butterflies [lo, hi), a pass quartets [lo/2, hi/2) and the
// normalization coefficients [2lo, 2hi).
func (r *Ring) nttRows(rows [][]uint64, ms []*Modulus) {
	half := r.N / 2
	if r.exec.blockCount(len(rows), half) <= 1 {
		r.exec.Run(len(rows), func(i int) { r.nttRow(rows[i], ms[i]) })
		return
	}
	step := func(fn func(a []uint64, m *Modulus, lo, hi int)) {
		r.exec.RunBlocks(len(rows), half, func(i, lo, hi int) { fn(rows[i], ms[i], lo, hi) })
	}
	logH := r.LogN - 2
	if r.LogN&1 == 1 {
		step(nttHead)
		logH--
	}
	for ; logH >= 0; logH -= 2 {
		step(func(a []uint64, m *Modulus, lo, hi int) { nttPass(a, m, logH, lo>>1, hi>>1) })
	}
	step(func(a []uint64, m *Modulus, lo, hi int) { nttNormalize(a, m, 2*lo, 2*hi) })
}

// nttRow runs the forward network on one whole row: the head stage, every
// pass and the normalization, each over its full range.
func (r *Ring) nttRow(a []uint64, m *Modulus) {
	n := r.N
	logH := r.LogN - 2
	if r.LogN&1 == 1 {
		nttHead(a, m, 0, n/2)
		logH--
	}
	for ; logH >= 0; logH -= 2 {
		nttPass(a, m, logH, 0, n/4)
	}
	nttNormalize(a, m, 0, n)
}

// inttRows is the inverse counterpart of nttRows, with the same shard
// decision and index space: passes take quartets [lo/2, hi/2), the tail
// stage butterflies [lo, hi) and the N^-1 scaling coefficients [2lo, 2hi).
func (r *Ring) inttRows(rows [][]uint64, ms []*Modulus) {
	half := r.N / 2
	if r.exec.blockCount(len(rows), half) <= 1 {
		r.exec.Run(len(rows), func(i int) { r.inttRow(rows[i], ms[i]) })
		return
	}
	step := func(fn func(a []uint64, m *Modulus, lo, hi int)) {
		r.exec.RunBlocks(len(rows), half, func(i, lo, hi int) { fn(rows[i], ms[i], lo, hi) })
	}
	for logT := 0; logT+2 <= r.LogN; logT += 2 {
		step(func(a []uint64, m *Modulus, lo, hi int) { inttPass(a, m, logT, lo>>1, hi>>1) })
	}
	if r.LogN&1 == 1 {
		step(inttTail)
	}
	step(func(a []uint64, m *Modulus, lo, hi int) { inttScale(a, m, 2*lo, 2*hi) })
}

// inttRow runs the inverse network on one whole row: every pass, the tail
// stage and the N^-1 scaling, each over its full range.
func (r *Ring) inttRow(a []uint64, m *Modulus) {
	n := r.N
	for logT := 0; logT+2 <= r.LogN; logT += 2 {
		inttPass(a, m, logT, 0, n/4)
	}
	if r.LogN&1 == 1 {
		inttTail(a, m, 0, n/2)
	}
	inttScale(a, m, 0, n)
}

// nttHead runs butterflies [lo, hi) of the leading radix-2 stage an odd
// log2(N) needs before the fused passes: the single group (mLen = 1, twiddle
// ψ^brv(1)), butterfly j touching a[j] and a[j+N/2]. Outputs are corrected
// into [0, 2q) (the REDC-lazy twiddle product of any input is < 2q).
func nttHead(a []uint64, m *Modulus, lo, hi int) {
	twoQ := 2 * m.Q
	mr := m.MRed
	w := m.psiRev[1]
	t := len(a) >> 1
	x := a[lo:hi:hi]
	y := a[t+lo : t+hi : t+hi]
	y = y[:len(x)]
	for j := range x {
		u := x[j]
		v := mr.MulLazy(y[j], w)
		s := u + v
		if s >= twoQ {
			s -= twoQ
		}
		d := u + twoQ - v
		if d >= twoQ {
			d -= twoQ
		}
		x[j] = s
		y[j] = d
	}
}

// nttPass runs quartets [lo, hi) of one fused forward pass, which merges two
// consecutive Cooley–Tukey stages into one sweep of radix-4 butterflies. The
// quartet stride is h = 2^logH, so the pass has mLen = N/(4h) groups of h
// quartets; quartet b belongs to group g = b>>logH at offset j = b mod h and
// transforms (c0, c1, c2, c3) = a[4gh+j+{0, h, 2h, 3h}]. The group k = mLen+g
// loads its interleaved twiddle triple {w1, w2, w3} = psiFused[3k..3k+2]
// (first-layer twiddle, then the two child twiddles of the second layer):
//
//	layer 1:  u0 = c0 + w1·c2   u2 = c0 − w1·c2   (and likewise u1, u3 from c1, c3)
//	layer 2:  v0 = u0 + w2·u1   v1 = u0 − w2·u1   v2 = u2 + w3·u3   v3 = u2 − w3·u3
//
// Intermediates ride a widened [0, 4q) lazy window that extends across pass
// boundaries: quartet outputs are stored uncorrected (< 4q) and the next
// pass corrects only the two values a following sum could push past 4q —
// the additive inputs c0, c1 on load and the additive halves u0, u2 between
// the layers (their uncorrected sums would reach 6q and 8q, past the two
// headroom bits a 62-bit modulus leaves). The multiplicative halves never
// pay a correction at all: any 64-bit value times a canonical twiddle is a
// valid REDC input, so c2, c3, u1, u3 feed their multiplies unreduced. Per
// 4 coefficients a fused pass spends the same 4 REDC multiplies as two
// radix-2 stages but 4 conditional corrections instead of 8 and — the
// actual win on paper-sized rows — half the loads and stores. nttNormalize
// folds the window back down. Distinct quartets touch disjoint coefficients,
// so any partition of [0, N/4) is race-free and order-independent. The first
// group and offset are found with shifts once per call; later groups follow
// at a fixed stride, so no quartet pays a division.
func nttPass(a []uint64, m *Modulus, logH, lo, hi int) {
	twoQ := 2 * m.Q
	mr := m.MRed
	fw := m.psiFused
	sh := uint(logH) & 63 // the mask drops the compiler's oversized-shift guard
	h := 1 << sh
	// The first group, its twiddle triple and its first coefficient; every
	// later group starts at offset 0 one triple and 4h coefficients on.
	g := lo >> sh
	k := 3 * (len(a)>>(sh+2) + g)
	base := g << (sh + 2)
	j := lo & (h - 1)
	for rem := hi - lo; rem > 0; {
		end := min(j+rem, h)
		tw := fw[k : k+3 : k+3]
		w1, w2, w3 := tw[0], tw[1], tw[2]
		// Re-slice so the compiler can drop the bounds checks: all four
		// views cover exactly the quartets [j, end) of this group.
		grp := a[base : base+4*h : base+4*h]
		x0 := grp[j:end:end]
		x1 := grp[h+j : h+end : h+end]
		x2 := grp[2*h+j : 2*h+end : 2*h+end]
		x3 := grp[3*h+j : 3*h+end : 3*h+end]
		x1 = x1[:len(x0)]
		x2 = x2[:len(x0)]
		x3 = x3[:len(x0)]
		for i := range x0 {
			c0 := x0[i]
			c1 := x1[i]
			c2 := x2[i]
			c3 := x3[i]
			if c0 >= twoQ {
				c0 -= twoQ
			}
			if c1 >= twoQ {
				c1 -= twoQ
			}
			p2 := mr.MulLazy(c2, w1)
			p3 := mr.MulLazy(c3, w1)
			u0 := c0 + p2
			u2 := c0 + twoQ - p2
			u1 := c1 + p3
			u3 := c1 + twoQ - p3
			if u0 >= twoQ {
				u0 -= twoQ
			}
			if u2 >= twoQ {
				u2 -= twoQ
			}
			s1 := mr.MulLazy(u1, w2)
			s3 := mr.MulLazy(u3, w3)
			x0[i] = u0 + s1
			x1[i] = u0 + twoQ - s1
			x2[i] = u2 + s3
			x3[i] = u2 + twoQ - s3
		}
		rem -= len(x0)
		j = 0
		k += 3
		base += 4 * h
	}
}

// nttNormalize folds coefficients [lo, hi) from the passes' [0, 4q) window
// to canonical residues (two conditional subtractions).
func nttNormalize(a []uint64, m *Modulus, lo, hi int) {
	q := m.Q
	twoQ := 2 * q
	a = a[lo:hi:hi]
	for j := range a {
		v := a[j]
		if v >= twoQ {
			v -= twoQ
		}
		if v >= q {
			v -= q
		}
		a[j] = v
	}
}

// inttPass runs quartets [lo, hi) of one fused inverse pass, which merges two
// consecutive Gentleman–Sande stages. The quartet stride is t = 2^logT, so
// the pass has h2 = N/(4t) groups of t quartets; quartet b belongs to group
// g = b>>logT at offset j and transforms (c0, c1, c2, c3) =
// a[4gt+j+{0, t, 2t, 3t}]. The group k = h2+g loads its triple
// {wA0, wA1, wB} = psiInvFused[3k..3k+2] (the two first-layer child
// twiddles, then the second-layer parent twiddle):
//
//	layer 1:  u0 = c0 + c1   u1 = (c0 − c1)·wA0   (and u2, u3 from c2, c3)
//	layer 2:  v0 = u0 + u2   v2 = (u0 − u2)·wB    v1 = u1 + u3   v3 = (u1 − u3)·wB
//
// The window discipline mirrors the forward pass: inputs < 2q, the sums
// u0, u2 reach 4q and pay one conditional each before layer 2 (their sum
// would reach 8q otherwise), the REDC difference paths take their < 4q
// arguments unreduced and emit < 2q, and the remaining sums v0, v1 pay the
// pass-end corrections — 4 conditionals per 4 coefficients, equal to two
// radix-2 stages, with half the memory traffic. Outputs stay < 2q for the
// next pass; inttScale normalizes. Quartets are found as in nttPass.
func inttPass(a []uint64, m *Modulus, logT, lo, hi int) {
	twoQ := 2 * m.Q
	mr := m.MRed
	fw := m.psiInvFused
	sh := uint(logT) & 63
	t := 1 << sh
	g := lo >> sh
	k := 3 * (len(a)>>(sh+2) + g)
	base := g << (sh + 2)
	j := lo & (t - 1)
	for rem := hi - lo; rem > 0; {
		end := min(j+rem, t)
		tw := fw[k : k+3 : k+3]
		wA0, wA1, wB := tw[0], tw[1], tw[2]
		grp := a[base : base+4*t : base+4*t]
		x0 := grp[j:end:end]
		x1 := grp[t+j : t+end : t+end]
		x2 := grp[2*t+j : 2*t+end : 2*t+end]
		x3 := grp[3*t+j : 3*t+end : 3*t+end]
		x1 = x1[:len(x0)]
		x2 = x2[:len(x0)]
		x3 = x3[:len(x0)]
		for i := range x0 {
			c0 := x0[i]
			c1 := x1[i]
			c2 := x2[i]
			c3 := x3[i]
			u0 := c0 + c1
			u1 := mr.MulLazy(c0+twoQ-c1, wA0)
			u2 := c2 + c3
			u3 := mr.MulLazy(c2+twoQ-c3, wA1)
			if u0 >= twoQ {
				u0 -= twoQ
			}
			if u2 >= twoQ {
				u2 -= twoQ
			}
			v0 := u0 + u2
			if v0 >= twoQ {
				v0 -= twoQ
			}
			v2 := mr.MulLazy(u0+twoQ-u2, wB)
			v1 := u1 + u3
			if v1 >= twoQ {
				v1 -= twoQ
			}
			v3 := mr.MulLazy(u1+twoQ-u3, wB)
			x0[i] = v0
			x1[i] = v1
			x2[i] = v2
			x3[i] = v3
		}
		rem -= len(x0)
		j = 0
		k += 3
		base += 4 * t
	}
}

// inttTail runs butterflies [lo, hi) of the trailing radix-2 stage an odd
// log2(N) needs after the fused passes, mirroring nttHead: the single group
// with twiddle ψ^-brv(1), butterfly j touching a[j] and a[j+N/2]. The
// difference path feeds u-v+2q < 4q into the lazy REDC and comes out < 2q
// with no conditional; only the sum path pays one.
func inttTail(a []uint64, m *Modulus, lo, hi int) {
	twoQ := 2 * m.Q
	mr := m.MRed
	w := m.psiInvRev[1]
	t := len(a) >> 1
	x := a[lo:hi:hi]
	y := a[t+lo : t+hi : t+hi]
	y = y[:len(x)]
	for j := range x {
		u := x[j]
		v := y[j]
		s := u + v
		if s >= twoQ {
			s -= twoQ
		}
		x[j] = s
		y[j] = mr.MulLazy(u+twoQ-v, w)
	}
}

// inttScale multiplies coefficients [lo, hi) by N^-1; its full REDC reduces
// the lazy values to canonical residues.
func inttScale(a []uint64, m *Modulus, lo, hi int) {
	nInvM := m.nInvM
	mr := m.MRed
	a = a[lo:hi:hi]
	for j := range a {
		a[j] = mr.Mul(a[j], nInvM)
	}
}

// evalOrderExponent returns e(i) such that, after r.NTT, row index i holds the
// evaluation of the polynomial at ψ^e(i). For the Cooley–Tukey network above,
// e(i) = 2·brv(i)+1 (the odd powers of ψ in bit-reversed order). Automorphism
// permutation tables (Section 5.5) are derived from this indexing.
func (r *Ring) evalOrderExponent(i int) int { return 2*r.brv[i] + 1 }
