package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// bconvModuli builds bare moduli (Q plus the Barrett and Montgomery
// reducers, which is all a BasisExtender reads) without the NTT tables a
// full Ring would precompute — at N=2^17 those tables for 56 primes would
// dwarf the operands being converted.
func bconvModuli(primes []uint64) []*Modulus {
	ms := make([]*Modulus, len(primes))
	for i, q := range primes {
		ms[i] = &Modulus{Q: q, BRed: mod.NewBarrett(q), MRed: mod.NewMontgomery(q)}
	}
	return ms
}

// bconvBoundaryInputs returns true-residue source rows whose stage-1 digits
// y_j = [x_j·(Q/q_j)^-1]_{q_j} hit the centering threshold: x_j = y·(Q/q_j)
// mod q_j for y ∈ {0, (q_j-1)/2, (q_j+1)/2, q_j-1}. Coefficients 0..3 use one
// boundary digit on every limb (so coefficients 2 and 3 take the largest
// correction count, every digit above half), coefficients 4..11 mix them
// across limbs, and the rest are uniform.
func bconvBoundaryInputs(rng *rand.Rand, primes []uint64, n int) [][]uint64 {
	bigQ := big.NewInt(1)
	for _, q := range primes {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(q))
	}
	x := make([][]uint64, len(primes))
	for j, q := range primes {
		qb := new(big.Int).SetUint64(q)
		qhat := new(big.Int).Mod(new(big.Int).Quo(bigQ, qb), qb).Uint64()
		digits := []uint64{0, q >> 1, q>>1 + 1, q - 1}
		x[j] = make([]uint64, n)
		for k := range x[j] {
			switch {
			case k < len(digits):
				x[j][k] = mod.Mul(digits[k], qhat, q)
			case k < 3*len(digits):
				x[j][k] = mod.Mul(digits[(j+k)%len(digits)], qhat, q)
			default:
				x[j][k] = uniformUint64(rng, q)
			}
		}
	}
	return x
}

// bconvOracle computes BConv with big.Int arithmetic: y_j = x_j·(Q/q_j)^-1
// mod q_j, out_i = Σ_j f(y_j)·(Q/q_j) mod p_i with the centered f.
func bconvOracle(primesFrom, primesTo []uint64, xTrue [][]uint64) [][]uint64 {
	bigQ := big.NewInt(1)
	for _, q := range primesFrom {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(q))
	}
	n := len(xTrue[0])
	sums := make([]*big.Int, n)
	for k := range sums {
		sums[k] = new(big.Int)
	}
	for j, q := range primesFrom {
		qb := new(big.Int).SetUint64(q)
		qhat := new(big.Int).Quo(bigQ, qb)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qhat, qb), qb)
		for k := 0; k < n; k++ {
			y := new(big.Int).Mul(new(big.Int).SetUint64(xTrue[j][k]), inv)
			y.Mod(y, qb)
			if y.Uint64() > q>>1 {
				y.Sub(y, qb) // centered representative
			}
			sums[k].Add(sums[k], y.Mul(y, qhat))
		}
	}
	want := make([][]uint64, len(primesTo))
	for i, p := range primesTo {
		pb := new(big.Int).SetUint64(p)
		want[i] = make([]uint64, n)
		for k := range want[i] {
			want[i][k] = new(big.Int).Mod(sums[k], pb).Uint64()
		}
	}
	return want
}

// bconvMForm returns the Montgomery images of true-residue rows.
func bconvMForm(ms []*Modulus, xTrue [][]uint64) [][]uint64 {
	in := make([][]uint64, len(xTrue))
	for j := range in {
		in[j] = make([]uint64, len(xTrue[j]))
		for k := range in[j] {
			in[j][k] = ms[j].MRed.MForm(xTrue[j][k])
		}
	}
	return in
}

// bconvRows allocates a zeroed rows×n matrix.
func bconvRows(rows, n int) [][]uint64 {
	out := make([][]uint64, rows)
	for i := range out {
		out[i] = make([]uint64, n)
	}
	return out
}

// bconvCheck compares M-form Convert outputs against true-residue oracle
// rows, word for word.
func bconvCheck(t *testing.T, label string, to []*Modulus, out, want [][]uint64) {
	t.Helper()
	for i := range want {
		mr := to[i].MRed
		for k := range want[i] {
			if got := mr.IForm(out[i][k]); got != want[i][k] {
				t.Fatalf("%s: target limb %d coeff %d: got %d want %d", label, i, k, got, want[i][k])
			}
		}
	}
}

// TestBasisExtenderReducedFallback pins the per-term reduced stage 2 (taken
// when the lazy 128-bit accumulator could overflow) to the big.Int oracle
// and to the lazy path, on uniform and boundary inputs, under every engine
// shape. Real bases never clear lazyStage2, so the test clears it by hand.
func TestBasisExtenderReducedFallback(t *testing.T) {
	const logN = 6
	primes, err := mod.GenerateNTTPrimes(55, logN, 13+13)
	if err != nil {
		t.Fatal(err)
	}
	from, to := bconvModuli(primes[:13]), bconvModuli(primes[13:])
	n := 1 << logN
	xTrue := bconvBoundaryInputs(rand.New(rand.NewSource(17)), primes[:13], n)
	want := bconvOracle(primes[:13], primes[13:], xTrue)
	in := bconvMForm(from, xTrue)
	for _, cfg := range identityConfigs {
		e, st := cfg.engine()
		lazy, err := NewBasisExtender(from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !lazy.lazyStage2 {
			t.Fatal("13×55-bit → 13×55-bit basis should certify the lazy stage 2")
		}
		reduced, err := NewBasisExtender(from, to)
		if err != nil {
			t.Fatal(err)
		}
		reduced.lazyStage2 = false
		lazy.SetEngine(e)
		reduced.SetEngine(e)
		outLazy, outReduced := bconvRows(len(to), n), bconvRows(len(to), n)
		lazy.Convert(in, outLazy)
		reduced.Convert(in, outReduced)
		label := fmt.Sprintf("workers=%d block=%d", cfg.workers, cfg.block)
		bconvCheck(t, label+" reduced", to, outReduced, want)
		for i := range outLazy {
			for k := range outLazy[i] {
				if outLazy[i][k] != outReduced[i][k] {
					t.Fatalf("%s: target limb %d coeff %d: lazy %d, reduced %d",
						label, i, k, outLazy[i][k], outReduced[i][k])
				}
			}
		}
		cfg.checkSharded(t, label, st)
		e.Close()
	}
}

// BenchmarkBConvUniform times Convert on uniform residues at the shapes
// where BConv dominates a key switch: the keyswitch-n15 benchmark workload
// (ModUp at the top level, N=2^15, 13×45-bit → 13×55-bit) and the Table 2
// instance (N=2^17, 28×60-bit → 28×60-bit). The inputs are uniform, as
// real key-switch digits are, so about half of the stage-1 digits lie above
// the centering threshold; small structured residues would all fall below
// it and could hide a data-dependent cost.
func BenchmarkBConvUniform(b *testing.B) {
	for _, s := range []struct {
		name             string
		logN, nf, nt     int
		logQFrom, logQTo int
	}{
		{"keyswitch-n15/13x45-13x55", 15, 13, 13, 45, 55},
		{"table2-n17/28x60-28x60", 17, 28, 28, 60, 60},
	} {
		// Prefix and suffix of one generated chain, so equal widths still
		// give disjoint bases.
		primesFrom, err := mod.GenerateNTTPrimes(s.logQFrom, s.logN, s.nf+s.nt)
		if err != nil {
			b.Fatal(err)
		}
		primesTo, err := mod.GenerateNTTPrimes(s.logQTo, s.logN, s.nf+s.nt)
		if err != nil {
			b.Fatal(err)
		}
		from, to := bconvModuli(primesFrom[:s.nf]), bconvModuli(primesTo[s.nf:])
		be, err := NewBasisExtender(from, to)
		if err != nil {
			b.Fatal(err)
		}
		n := 1 << s.logN
		rng := rand.New(rand.NewSource(23))
		in := bconvRows(s.nf, n)
		for j := range in {
			for k := range in[j] {
				in[j][k] = uniformUint64(rng, from[j].Q)
			}
		}
		out := bconvRows(s.nt, n)
		for _, workers := range []int{0, 2} {
			e := NewEngine(workers)
			be.SetEngine(e)
			b.Run(s.name+"/"+benchName("workers", workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.Convert(in, out)
				}
			})
			e.Close()
		}
	}
}
