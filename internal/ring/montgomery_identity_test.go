package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bts/internal/mod"
	"bts/internal/telemetry"
)

// This file pins the Montgomery refactor to the Barrett ground truth: for
// every ring kernel, IForm(kernel_M(MForm(x))) must be bit-identical to
// kernel_Barrett(x), at every level of the chain and under every engine
// shape (serial, limb-parallel, coefficient-block sharded with odd blocks).
// Run with -race to also certify the sharded dispatch.

// engineShape is one (workers, blockSize) engine configuration of the
// identity sweeps. sharded marks the shapes whose block floor lies below N/2
// on a multi-worker pool at logN 5 and 6, so low-level and one-row kernels
// must take the coefficient-sharded schedule there; the sweeps assert that
// they did, so this coverage cannot silently disappear.
type engineShape struct {
	workers, block int
	sharded        bool
}

// engine builds the shape's engine with a dispatch-counter sink attached.
func (s engineShape) engine() (*Engine, *telemetry.EngineStats) {
	e := NewEngine(s.workers)
	if s.block > 0 {
		e.SetBlockSize(s.block)
	}
	st := new(telemetry.EngineStats)
	e.SetStats(st)
	return e, st
}

// checkSharded fails the test if a shape marked sharded never issued a
// sharded dispatch.
func (s engineShape) checkSharded(t *testing.T, label string, st *telemetry.EngineStats) {
	t.Helper()
	if s.sharded && st.ShardedRuns.Load() == 0 {
		t.Fatalf("%s: workers=%d block=%d issued no sharded dispatch", label, s.workers, s.block)
	}
}

// identityConfigs enumerates the engine shapes the identity checks run
// under.
var identityConfigs = []engineShape{
	{0, 0, false},       // serial, default blocks
	{1, 64, false},      // single worker, forced small blocks
	{3, 48, false},      // odd worker count, ragged blocks
	{7, 1 << 20, false}, // wide pool, limb-only dispatch
	{3, 4, true},        // odd worker count, blocks far below N/2
	// Host parallelism (at least two workers, so the shape always shards)
	// with odd blocks.
	{max(runtime.NumCPU(), 2), 7, true},
}

// assertPlainEqual compares the IForm of an M-form polynomial against a plain
// reference, word for word.
func assertPlainEqual(t *testing.T, r *Ring, label string, mform, plain *Poly, level int) {
	t.Helper()
	got := r.CopyNew(mform, level)
	r.IForm(got, got, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if got.Coeffs[i][j] != plain.Coeffs[i][j] {
				t.Fatalf("%s: limb %d coeff %d: M-form path %d, Barrett path %d",
					label, i, j, got.Coeffs[i][j], plain.Coeffs[i][j])
			}
		}
	}
}

func TestMontgomeryKernelsBitIdenticalToBarrett(t *testing.T) {
	const logN = 6
	const nPrimes = 4
	primes, err := mod.GenerateNTTPrimes(45, logN, nPrimes)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range identityConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("workers=%d_block=%d", cfg.workers, cfg.block), func(t *testing.T) {
			r, err := NewRing(logN, primes)
			if err != nil {
				t.Fatal(err)
			}
			e, st := cfg.engine()
			defer e.Close()
			r.SetEngine(e)
			rng := rand.New(rand.NewSource(99))
			for level := 0; level < nPrimes; level++ {
				// Plain ground-truth operands and their M-form images
				// (uniform words serve as true residues directly; x ↦ xR is
				// a bijection, so the M-form copies are uniform too).
				a := r.NewPolyLevel(level)
				b := r.NewPolyLevel(level)
				r.SampleUniform(rng, a, level)
				r.SampleUniform(rng, b, level)
				aM := r.CopyNew(a, level)
				bM := r.CopyNew(b, level)
				r.MForm(aM, aM, level)
				r.MForm(bM, bM, level)

				// Forward and inverse NTT.
				pM, pB := r.CopyNew(aM, level), r.CopyNew(a, level)
				r.NTT(pM, level)
				r.NTTBarrett(pB, level)
				assertPlainEqual(t, r, fmt.Sprintf("NTT level %d", level), pM, pB, level)
				r.INTT(pM, level)
				r.INTTBarrett(pB, level)
				assertPlainEqual(t, r, fmt.Sprintf("INTT level %d", level), pM, pB, level)

				// Element-wise products.
				outM, outB := r.NewPolyLevel(level), r.NewPolyLevel(level)
				r.MulCoeffs(aM, bM, outM, level)
				r.MulCoeffsBarrett(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("MulCoeffs level %d", level), outM, outB, level)

				r.MulCoeffsAndAdd(aM, bM, outM, level)
				r.MulCoeffsAndAddBarrett(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("MulCoeffsAndAdd level %d", level), outM, outB, level)

				// Scalar multiply, including an unreduced scalar.
				for _, s := range []uint64{0, 1, 12345, ^uint64(0) - 17} {
					r.MulScalar(aM, s, outM, level)
					r.MulScalarBarrett(a, s, outB, level)
					assertPlainEqual(t, r, fmt.Sprintf("MulScalar(%d) level %d", s, level), outM, outB, level)
				}

				// Form-agnostic kernels: the same function is its own
				// reference on plain operands.
				r.Add(aM, bM, outM, level)
				r.Add(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Add level %d", level), outM, outB, level)
				r.Sub(aM, bM, outM, level)
				r.Sub(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Sub level %d", level), outM, outB, level)
				r.Neg(aM, outM, level)
				r.Neg(a, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Neg level %d", level), outM, outB, level)

				// MulByMonomialNTT multiplies by an M-form twiddle with a
				// fused REDC, so it preserves the operand's form: running it
				// on the plain copy yields the plain reference.
				r.MulByMonomialNTT(aM, r.N/2, outM, level)
				r.MulByMonomialNTT(a, r.N/2, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("MulByMonomialNTT level %d", level), outM, outB, level)

				// Lazy 128-bit MAC chain: two accumulations then one fused
				// Barrett+REDC reduction, against two reduced Barrett MACs.
				acc := r.GetAcc(level)
				r.MulCoeffsAndAddLazy(aM, bM, acc, level)
				r.MulCoeffsAndAddLazy(bM, bM, acc, level)
				r.ReduceAcc(acc, outM, level)
				r.PutAcc(acc)
				r.Zero(outB, level)
				r.MulCoeffsAndAddBarrett(a, b, outB, level)
				r.MulCoeffsAndAddBarrett(b, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Acc128 MAC level %d", level), outM, outB, level)

				// Fused gather-MAC against permute-then-MAC.
				g := r.GaloisElement(1)
				table := r.AutoIndexNTT(g)
				acc = r.GetAcc(level)
				r.MulCoeffsAndAddLazy(aM, bM, acc, level)
				r.MulGatherAndAddLazy(bM, table, aM, acc, level)
				r.ReduceAcc(acc, outM, level)
				r.PutAcc(acc)
				perm := r.NewPolyLevel(level)
				r.AutomorphismNTT(b, g, perm, level)
				r.Zero(outB, level)
				r.MulCoeffsAndAddBarrett(a, b, outB, level)
				r.MulCoeffsAndAddBarrett(perm, a, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("gather MAC level %d", level), outM, outB, level)
			}
			cfg.checkSharded(t, "Montgomery kernels", st)
		})
	}
}

// TestBasisExtenderBitIdenticalAcrossEngines pins BConv to a serial big.Int
// implementation of the exact centered formula, for M-form inputs and
// outputs, under every engine shape. Besides uniform residues, the inputs
// carry boundary rows whose stage-1 digits sit on the centering threshold
// (see bconvBoundaryInputs), and the shapes include a key-switch-like
// 13→13 conversion.
func TestBasisExtenderBitIdenticalAcrossEngines(t *testing.T) {
	const logN = 6
	n := 1 << logN
	for _, s := range []struct {
		nf, nt           int
		logQFrom, logQTo int
	}{
		{3, 2, 45, 46},
		{4, 3, 45, 46}, // even nf: stage 2 sweeps source rows in pairs only
		{13, 13, 45, 55},
	} {
		primesQ, err := mod.GenerateNTTPrimes(s.logQFrom, logN, s.nf)
		if err != nil {
			t.Fatal(err)
		}
		primesP, err := mod.GenerateNTTPrimes(s.logQTo, logN, s.nt)
		if err != nil {
			t.Fatal(err)
		}
		from, to := bconvModuli(primesQ), bconvModuli(primesP)
		xTrue := bconvBoundaryInputs(rand.New(rand.NewSource(5)), primesQ, n)
		want := bconvOracle(primesQ, primesP, xTrue)
		in := bconvMForm(from, xTrue) // M-form inputs, as ModUp presents them
		for _, cfg := range identityConfigs {
			e, st := cfg.engine()
			be, err := NewBasisExtender(from, to)
			if err != nil {
				t.Fatal(err)
			}
			be.SetEngine(e)
			out := bconvRows(s.nt, n)
			be.Convert(in, out)
			label := fmt.Sprintf("%d→%d workers=%d block=%d", s.nf, s.nt, cfg.workers, cfg.block)
			bconvCheck(t, label, to, out, want)
			cfg.checkSharded(t, label, st)
			e.Close()
		}
	}
}

// TestDivRoundBitIdenticalAcrossEngines checks the four-pass rescale produces
// identical words under every engine shape (the serial result is the
// reference).
func TestDivRoundBitIdenticalAcrossEngines(t *testing.T) {
	const logN = 6
	primes, err := mod.GenerateNTTPrimes(45, logN, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Poly
	for _, cfg := range identityConfigs {
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatal(err)
		}
		e, st := cfg.engine()
		r.SetEngine(e)
		rng := rand.New(rand.NewSource(11))
		p := r.NewPolyLevel(3)
		r.SampleUniform(rng, p, 3)
		r.NTT(p, 3)
		r.DivRoundByLastModulusNTT(p, 3)
		if ref == nil {
			ref = p
		} else {
			for i := 0; i < 3; i++ {
				for j := 0; j < r.N; j++ {
					if p.Coeffs[i][j] != ref.Coeffs[i][j] {
						t.Fatalf("workers=%d block=%d: limb %d coeff %d diverges from serial rescale",
							cfg.workers, cfg.block, i, j)
					}
				}
			}
		}
		cfg.checkSharded(t, "rescale", st)
		e.Close()
	}
}
