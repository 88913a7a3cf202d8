package ring

// The scalar Montgomery radix-2 network: one REDC-lazy twiddle multiply per
// butterfly, values held in [0, 2q), one normalization sweep at the end. It
// was the production kernel before the fused radix-4 passes and stays here as
// their in-family oracle: the identity sweep pins the production transforms
// to it (and both to the Barrett reference), and BenchmarkNTTKernel times the
// fused passes against it.

// nttRadix2 forward-transforms rows [0..level] of p with the radix-2 oracle.
func (r *Ring) nttRadix2(p *Poly, level int) {
	for i := 0; i <= level; i++ {
		r.nttRowRadix2(p.Coeffs[i], r.Moduli[i])
	}
}

// inttRadix2 inverse-transforms rows [0..level] of p with the radix-2 oracle.
func (r *Ring) inttRadix2(p *Poly, level int) {
	for i := 0; i <= level; i++ {
		r.inttRowRadix2(p.Coeffs[i], r.Moduli[i])
	}
}

func (r *Ring) nttRowRadix2(a []uint64, m *Modulus) {
	n := r.N
	q := m.Q
	twoQ := 2 * q
	mr := m.MRed
	t := n
	for mLen := 1; mLen < n; mLen <<= 1 {
		t >>= 1
		for i := 0; i < mLen; i++ {
			w := m.psiRev[mLen+i]
			base := 2 * i * t
			x := a[base : base+t : base+t]
			y := a[base+t : base+2*t : base+2*t]
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
	}
	for j := range a {
		if a[j] >= q {
			a[j] -= q
		}
	}
}

func (r *Ring) inttRowRadix2(a []uint64, m *Modulus) {
	n := r.N
	twoQ := 2 * m.Q
	mr := m.MRed
	t := 1
	for mLen := n; mLen > 1; mLen >>= 1 {
		j1 := 0
		h := mLen >> 1
		for i := 0; i < h; i++ {
			w := m.psiInvRev[h+i]
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t : j1+2*t]
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
			j1 += 2 * t
		}
		t <<= 1
	}
	nInvM := m.nInvM
	for j := range a {
		a[j] = mr.Mul(a[j], nInvM)
	}
}
