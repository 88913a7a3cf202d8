package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bts/internal/mod"
	"bts/internal/telemetry"
)

// This file pins the fused radix-4 transforms to the rest of the kernel
// family: at every (logN parity, level, workers, block) configuration the
// production NTT/INTT dispatch, the scalar Montgomery radix-2 oracle
// (radix2_test.go) and the Barrett reference must produce bit-identical
// residues, and a forward/inverse round trip must be exact. The shapes
// marked sharded drive the coefficient-sharded schedule at both parities
// (and assert that they did); run with -race to also certify it race-free.

// fusedSweepConfigs enumerates the engine shapes of the sweep: the identity
// shapes plus host parallelism with blocks wider than N/2 (limb-only) and an
// oversubscribed pool. On small hosts a NumCPU shape may duplicate another,
// which is harmless.
var fusedSweepConfigs = append(identityConfigs[:len(identityConfigs):len(identityConfigs)],
	engineShape{runtime.NumCPU(), 33, false},
	engineShape{runtime.NumCPU() + 2, 0, false},
)

func TestFusedRadix4BitIdentity(t *testing.T) {
	// Both log2(N) parities: even logN runs pure fused passes, odd logN
	// additionally exercises the radix-2 head (NTT) and tail (iNTT) stages,
	// each under both the per-row and the sharded schedule.
	for _, logN := range []int{5, 6} {
		const nPrimes = 4
		// 60-bit primes sit at the top of the lazy window's headroom (the
		// fused kernels' 4q bound is tightest there); a 45-bit chain rides
		// along as the common case.
		primes60, err := mod.GenerateNTTPrimes(60, logN, 2)
		if err != nil {
			t.Fatal(err)
		}
		primes45, err := mod.GenerateNTTPrimes(45, logN, 2)
		if err != nil {
			t.Fatal(err)
		}
		primes := append(append([]uint64{}, primes60...), primes45...)
		for _, cfg := range fusedSweepConfigs {
			t.Run(fmt.Sprintf("logN=%d_workers=%d_block=%d", logN, cfg.workers, cfg.block), func(t *testing.T) {
				// r runs the transforms under test on the shape's engine;
				// ref is a serial twin for operands and oracles, so the
				// engine's dispatch counters see the transforms alone.
				r, err := NewRing(logN, primes)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewRing(logN, primes)
				if err != nil {
					t.Fatal(err)
				}
				ref.SetEngine(nil)
				e, st := cfg.engine()
				defer e.Close()
				r.SetEngine(e)
				rng := rand.New(rand.NewSource(1234))
				for level := 0; level < nPrimes; level++ {
					a := ref.NewPolyLevel(level)
					ref.SampleUniform(rng, a, level)
					aM := ref.CopyNew(a, level)
					ref.MForm(aM, aM, level)

					// Forward: production dispatch vs radix-2 vs Barrett.
					pAuto, pR2, pB := ref.CopyNew(aM, level), ref.CopyNew(aM, level), ref.CopyNew(a, level)
					r.NTT(pAuto, level)
					ref.nttRadix2(pR2, level)
					ref.NTTBarrett(pB, level)
					if !ref.Equal(pAuto, pR2, level) {
						t.Fatalf("NTT level %d: dispatch and radix-2 kernels diverge", level)
					}
					assertPlainEqual(t, ref, fmt.Sprintf("NTT level %d", level), pAuto, pB, level)
					fwd := ref.CopyNew(pAuto, level)

					// Inverse: same triangle, then an exact round trip.
					r.INTT(pAuto, level)
					ref.inttRadix2(pR2, level)
					ref.INTTBarrett(pB, level)
					if !ref.Equal(pAuto, pR2, level) {
						t.Fatalf("INTT level %d: dispatch and radix-2 kernels diverge", level)
					}
					assertPlainEqual(t, ref, fmt.Sprintf("INTT level %d", level), pAuto, pB, level)
					if !ref.Equal(pAuto, aM, level) {
						t.Fatalf("level %d: NTT/INTT round trip not exact", level)
					}

					// Single-row entry points (the staged-rescale path).
					for i := 0; i <= level; i++ {
						rowAuto := append([]uint64{}, aM.Coeffs[i]...)
						r.NTTRow(rowAuto, i)
						for j := range rowAuto {
							if rowAuto[j] != fwd.Coeffs[i][j] {
								t.Fatalf("NTTRow limb %d: diverges from full transform at coeff %d", i, j)
							}
						}
						r.INTTRow(rowAuto, i)
						for j := range rowAuto {
							if rowAuto[j] != aM.Coeffs[i][j] {
								t.Fatalf("INTTRow limb %d: round trip not exact at coeff %d", i, j)
							}
						}
					}
				}
				cfg.checkSharded(t, "transforms", st)
			})
		}
	}
}

// TestFusedRadix4LazyWindowWorstCase drives the fused kernels with
// adversarial rows — all coefficients at q-1, the largest canonical residue —
// under the widest supported modulus, so any overflow of the [0, 4q) window
// (which uniform sampling would hit only with vanishing probability at every
// butterfly simultaneously) breaks the round trip deterministically. Every
// identity shape runs it; the one-row level takes the sharded schedule on
// the shapes marked sharded.
func TestFusedRadix4LazyWindowWorstCase(t *testing.T) {
	for _, logN := range []int{5, 6} {
		primes, err := mod.GenerateNTTPrimes(61, logN, 2) // the generator's widest tier
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range identityConfigs {
			e, st := cfg.engine()
			r.SetEngine(e)
			for level := 0; level < len(primes); level++ {
				a := r.NewPolyLevel(level)
				for i := 0; i <= level; i++ {
					for j := 0; j < r.N; j++ {
						a.Coeffs[i][j] = r.Moduli[i].Q - 1
					}
				}
				ref := r.CopyNew(a, level)
				label := fmt.Sprintf("logN=%d workers=%d block=%d level %d", logN, cfg.workers, cfg.block, level)
				r.NTT(a, level)
				r.nttRadix2(ref, level)
				if !r.Equal(a, ref, level) {
					t.Fatalf("%s: fused NTT diverges from radix-2 on all-(q-1) rows", label)
				}
				r.INTT(a, level)
				r.inttRadix2(ref, level)
				if !r.Equal(a, ref, level) {
					t.Fatalf("%s: fused INTT diverges from radix-2 on all-(q-1) rows", label)
				}
			}
			cfg.checkSharded(t, fmt.Sprintf("logN=%d worst case", logN), st)
			r.SetEngine(nil)
			e.Close()
		}
	}
}

// TestNTTDispatchCount pins the engine dispatches per transform, the
// deterministic stand-in for the wall-clock radix-4 vs radix-2 comparison of
// BenchmarkNTTKernel: a sharded one-row transform issues one RunBlocks per
// step — the odd-log2(N) head or tail, ⌊log2(N)/2⌋ fused passes and the
// normalization, ⌈log2(N)/2⌉ + 1 in all — and a transform whose rows fill
// the pool issues exactly one Run.
func TestNTTDispatchCount(t *testing.T) {
	for _, logN := range []int{5, 6} {
		primes, err := mod.GenerateNTTPrimes(45, logN, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(2)
		e.SetBlockSize(4)
		r.SetEngine(e)
		p := r.NewPolyLevel(1)
		r.SampleUniform(rand.New(rand.NewSource(7)), p, 1)
		steps := int64((logN+1)/2 + 1)
		for _, c := range []struct {
			name            string
			run             func()
			runs, blockRuns int64
		}{
			{"NTTRow", func() { r.NTTRow(p.Coeffs[0], 0) }, steps, steps},
			{"INTTRow", func() { r.INTTRow(p.Coeffs[0], 0) }, steps, steps},
			{"NTT", func() { r.NTT(p, 1) }, 1, 0},
			{"INTT", func() { r.INTT(p, 1) }, 1, 0},
		} {
			st := new(telemetry.EngineStats)
			e.SetStats(st)
			c.run()
			if got := st.BlockRuns.Load(); got != c.blockRuns {
				t.Errorf("logN=%d %s: %d RunBlocks dispatches, want %d", logN, c.name, got, c.blockRuns)
			}
			if got := st.ShardedRuns.Load(); got != c.blockRuns {
				t.Errorf("logN=%d %s: %d sharded dispatches, want %d", logN, c.name, got, c.blockRuns)
			}
			if got := st.Runs.Load() + st.InlineRuns.Load(); got != c.runs {
				t.Errorf("logN=%d %s: %d Run dispatches, want %d", logN, c.name, got, c.runs)
			}
		}
		e.Close()
	}
}
