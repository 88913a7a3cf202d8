package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// Kernel-level NTT benchmarks: single rows at the benchmark workloads' ring
// sizes (N=2^12 for boot-n12, N=2^15 for keyswitch-n15) and the Table 2
// instance's N=2^17, under 50- and 60-bit primes (the chain's working and
// bootstrap-section widths). They time the scalar Montgomery radix-2 oracle
// (radix2_test.go) against the production fused radix-4 transform directly —
// serial engine, one row, no dispatch — so a fused-kernel regression shows up
// in `go test -bench NTTKernel ./internal/ring`. b.SetBytes reports the
// algorithmic stream rate (one load + one store per coefficient per radix-2
// stage equivalent), making the fused passes' traffic savings visible as a
// higher MB/s at equal algorithmic bytes.

func benchNTTKernel(b *testing.B, logN, logQ int, fn func(r *Ring, p *Poly)) {
	primes, err := mod.GenerateNTTPrimes(logQ, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		b.Fatal(err)
	}
	r.SetEngine(nil) // serial: time the kernel, not the dispatch
	rng := rand.New(rand.NewSource(42))
	p := r.NewPolyLevel(0)
	r.SampleUniform(rng, p, 0)
	b.SetBytes(int64(16 * r.N * logN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(r, p)
	}
}

func BenchmarkNTTKernel(b *testing.B) {
	for _, logN := range []int{12, 15, 17} {
		for _, logQ := range []int{50, 60} {
			for _, k := range []struct {
				name string
				fwd  func(r *Ring, p *Poly)
				inv  func(r *Ring, p *Poly)
			}{
				{"radix2",
					func(r *Ring, p *Poly) { r.nttRadix2(p, 0) },
					func(r *Ring, p *Poly) { r.inttRadix2(p, 0) }},
				{"radix4",
					func(r *Ring, p *Poly) { r.NTT(p, 0) },
					func(r *Ring, p *Poly) { r.INTT(p, 0) }},
			} {
				b.Run(fmt.Sprintf("NTT/%s/logN=%d/q=%d", k.name, logN, logQ), func(b *testing.B) {
					benchNTTKernel(b, logN, logQ, k.fwd)
				})
				b.Run(fmt.Sprintf("INTT/%s/logN=%d/q=%d", k.name, logN, logQ), func(b *testing.B) {
					benchNTTKernel(b, logN, logQ, k.inv)
				})
			}
		}
	}
}
