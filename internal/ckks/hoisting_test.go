package ckks

import (
	"math/rand"
	"testing"
)

// TestRotateHoistedMatchesRotate is the central hoisting invariant: a
// hoisted rotation (permute the shared decomposition, then MAC) must be
// bit-identical to the naive per-rotation key-switch, at every worker count.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	rotations := []int{1, 3, 7, 16, 100, -1, -5, 0}
	s := newTestSetup(t, 3, rotations)
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(42))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, err := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 1, 4} {
		s.ctx.SetWorkers(workers)
		// Duplicate amount exercises the dedup path.
		hoisted := s.eval.RotateHoisted(ct, append([]int{1}, rotations...))
		for _, r := range rotations {
			naive := s.eval.Rotate(ct, r)
			h := hoisted[r]
			if h.Level != naive.Level || h.Scale != naive.Scale {
				t.Fatalf("workers=%d rot=%d: level/scale mismatch", workers, r)
			}
			if !s.ctx.RingQ.Equal(h.C0, naive.C0, naive.Level) ||
				!s.ctx.RingQ.Equal(h.C1, naive.C1, naive.Level) {
				t.Fatalf("workers=%d rot=%d: hoisted rotation not bit-identical to Rotate", workers, r)
			}
			s.ctx.PutCiphertext(naive)
		}
		for _, h := range hoisted {
			s.ctx.PutCiphertext(h)
		}
	}
}

// TestRotateHoistedLowerLevel checks hoisting at a partial decomposition
// group (level not a multiple of alpha) where the last slice is clamped.
func TestRotateHoistedLowerLevel(t *testing.T) {
	rotations := []int{2, 9}
	s := newTestSetup(t, 3, rotations)
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(43))
	values := randomComplex(rng, s.params.Slots(), 1)
	for lvl := s.params.MaxLevel() - 1; lvl >= 0; lvl -= 2 {
		pt, err := s.encoder.Encode(values, lvl, s.params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		hoisted := s.eval.RotateHoisted(ct, rotations)
		for _, r := range rotations {
			naive := s.eval.Rotate(ct, r)
			if !s.ctx.RingQ.Equal(hoisted[r].C0, naive.C0, naive.Level) ||
				!s.ctx.RingQ.Equal(hoisted[r].C1, naive.C1, naive.Level) {
				t.Fatalf("level=%d rot=%d: hoisted rotation not bit-identical", lvl, r)
			}
			s.ctx.PutCiphertext(naive)
			s.ctx.PutCiphertext(hoisted[r])
		}
	}
}

// TestLinearTransformHoistedPrecision compares the double-hoisted transform
// (lazy ModDown once per giant step) against the eager reference path on a
// dense random matrix: both must hit the plain result within the transform
// error budget, and the deferred ModDown — whose rounding enters once per
// giant step instead of once per diagonal, un-amplified by the plaintext
// scale — must not be worse than the eager path by more than noise jitter.
func TestLinearTransformHoistedPrecision(t *testing.T) {
	nDiags := 24
	s := newTestSetup(t, 2, allRotations(nDiags, 1<<9))
	defer s.ctx.Close()
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(55))
	values := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	diags := map[int][]complex128{}
	for k := 0; k < nDiags; k++ {
		diags[k] = randomComplex(rng, n, 1)
	}
	lt, err := NewLinearTransform(s.encoder, diags, lvl, float64(s.params.Q[lvl]))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < nDiags; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}

	hoisted := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
	eager := s.eval.Rescale(linearTransformEager(s.eval, ct, lt))

	errHoisted := maxErr(s.encoder.Decode(s.dec.DecryptNew(hoisted)), want)
	errEager := maxErr(s.encoder.Decode(s.dec.DecryptNew(eager)), want)
	t.Logf("dense transform: hoisted err %.3g, eager err %.3g", errHoisted, errEager)
	if errHoisted > 1e-3 {
		t.Fatalf("hoisted transform error %g above budget", errHoisted)
	}
	if errHoisted > 2*errEager+1e-9 {
		t.Fatalf("hoisted transform error %g worse than eager %g beyond jitter", errHoisted, errEager)
	}
}

// TestLinearTransformHoistedDecompositions checks the hoisting economy on a
// CoeffToSlot-sized transform: a dense random slots×slots matrix (all 512
// diagonals, as CoeffToSlot in single-stage form) at the LogN=10 bootstrap
// instance's parameters. The eager oracle runs one key-switch decomposition
// per baby and per giant rotation; the hoisted path shares one decomposition
// across the baby steps, so it must decompose at least 2× less. Every full
// rotation decomposes inside its own key-switch, while Counters().Decompose
// counts only shared decompositions, so both count Decompose + FullRot.
func TestLinearTransformHoistedDecompositions(t *testing.T) {
	params, ctx := bootContext(t)
	defer ctx.Close()
	kg := NewKeyGenerator(ctx, 9001)
	sk := kg.GenSecretKey()
	encoder := NewEncoder(ctx)
	enc := NewEncryptorSK(ctx, sk, 9002)
	dec := NewDecryptor(ctx, sk)

	n := params.Slots()
	rng := rand.New(rand.NewSource(9003))
	values := randomComplex(rng, n, 1)
	lvl := params.MaxLevel()
	pt, _ := encoder.Encode(values, lvl, params.Scale)
	ct, err := enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	diags := map[int][]complex128{}
	for k := 0; k < n; k++ {
		d := randomComplex(rng, n, 1)
		for j := range d {
			d[j] /= complex(float64(n), 0)
		}
		diags[k] = d
	}
	lt, err := NewLinearTransform(encoder, diags, lvl, float64(params.Q[lvl]))
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ctx, encoder, nil, kg.GenRotationKeys(sk, lt.Rotations(), false))
	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}

	decompositions := func(c OpCounters) int64 { return c.Decompose + c.FullRot }
	eval.ResetCounters()
	hoisted := eval.Rescale(eval.LinearTransform(ct, lt))
	hoistedOps := eval.Counters()
	eval.ResetCounters()
	eager := eval.Rescale(linearTransformEager(eval, ct, lt))
	eagerOps := eval.Counters()

	errHoisted := maxErr(encoder.Decode(dec.DecryptNew(hoisted)), want)
	errEager := maxErr(encoder.Decode(dec.DecryptNew(eager)), want)
	ratio := float64(decompositions(eagerOps)) / float64(decompositions(hoistedOps))
	t.Logf("%d diags, n1=%d: decompositions eager %d, hoisted %d (ratio %.2f); err hoisted %.3g, eager %.3g",
		n, lt.N1(), decompositions(eagerOps), decompositions(hoistedOps), ratio, errHoisted, errEager)
	if ratio < 2 {
		t.Fatalf("hoisted transform decomposes only %.2fx less than eager, want >= 2x", ratio)
	}
	if errHoisted > 1e-3 {
		t.Fatalf("hoisted transform error %g above budget", errHoisted)
	}
}

// TestLinearTransformN1Override pins every power-of-two baby-step count and
// checks the transform result is split-invariant.
func TestLinearTransformN1Override(t *testing.T) {
	nDiags := 8
	s := newTestSetup(t, 2, allRotations(nDiags, 1<<9))
	defer s.ctx.Close()
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(56))
	values := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	diags := map[int][]complex128{}
	for k := 0; k < nDiags; k++ {
		diags[k] = randomComplex(rng, n, 1)
	}
	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < nDiags; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}
	for _, n1 := range []int{1, 2, 8, 16} {
		lt, err := newLinearTransformN1(s.encoder, diags, lvl, float64(s.params.Q[lvl]), n1)
		if err != nil {
			t.Fatal(err)
		}
		out := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
		if e := maxErr(s.encoder.Decode(s.dec.DecryptNew(out)), want); e > 1e-3 {
			t.Fatalf("n1=%d: transform error %g", n1, e)
		}
		s.ctx.PutCiphertext(out)
	}
	if _, err := newLinearTransformN1(s.encoder, diags, lvl, float64(s.params.Q[lvl]), 3); err == nil {
		t.Fatal("expected error for non-power-of-two n1")
	}
}

// TestLinearTransformChunkedLazyMAC forces the Acc128 overflow guard: with
// ~61-bit primes the lazy MAC budget drops to ≤64 terms, so a dense
// transform evaluated as a single giant group must fold its diagonals in
// several chunks with intermediate reductions — and still match the eager
// path within the error budget.
func TestLinearTransformChunkedLazyMAC(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{61, 61},
		LogP:     61,
		Dnum:     1,
		LogScale: 40,
		H:        16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	n := params.Slots()
	budget := ctx.RingQ.LazyMACBudget()
	if pb := ctx.RingP.LazyMACBudget(); pb < budget {
		budget = pb
	}
	if budget >= n {
		t.Fatalf("budget %d does not force chunking over %d diagonals", budget, n)
	}

	kg := NewKeyGenerator(ctx, 6001)
	sk := kg.GenSecretKey()
	encoder := NewEncoder(ctx)
	enc := NewEncryptorSK(ctx, sk, 6002)
	dec := NewDecryptor(ctx, sk)
	rng := rand.New(rand.NewSource(58))
	values := randomComplex(rng, n, 1)
	lvl := params.MaxLevel()
	pt, _ := encoder.Encode(values, lvl, params.Scale)
	ct, err := enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	diags := map[int][]complex128{}
	for k := 0; k < n; k++ {
		d := make([]complex128, n)
		for j := range d {
			d[j] = randomComplex(rng, 1, 1)[0] / complex(float64(n), 0)
		}
		diags[k] = d
	}
	// n1 = slots puts every diagonal in one giant group (> budget terms).
	lt, err := newLinearTransformN1(encoder, diags, lvl, float64(params.Q[lvl]), n)
	if err != nil {
		t.Fatal(err)
	}
	rtks := kg.GenRotationKeys(sk, lt.Rotations(), false)
	eval := NewEvaluator(ctx, encoder, nil, rtks)

	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}
	hoisted := eval.Rescale(eval.LinearTransform(ct, lt))
	eager := eval.Rescale(linearTransformEager(eval, ct, lt))
	errHoisted := maxErr(encoder.Decode(dec.DecryptNew(hoisted)), want)
	errEager := maxErr(encoder.Decode(dec.DecryptNew(eager)), want)
	t.Logf("chunked transform (budget %d, %d diags): hoisted err %.3g, eager err %.3g", budget, n, errHoisted, errEager)
	if errHoisted > 1e-3 {
		t.Fatalf("chunked hoisted transform error %g above budget", errHoisted)
	}
	if errHoisted > 2*errEager+1e-9 {
		t.Fatalf("chunked hoisted error %g worse than eager %g beyond jitter", errHoisted, errEager)
	}
}

// TestBootstrapHoistedRegression runs the full small-N bootstrap with the
// bootstrapper's own CtS/StC chains evaluated stage by stage on both paths
// (ev.TransformChain vs the eager oracle): the hoisted pipeline must restore
// the same levels and be no less precise than the eager reference beyond
// noise jitter.
func TestBootstrapHoistedRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full bootstrap comparison is expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(57))
	n := s.params.Slots()
	values := randomComplex(rng, n, 0.7)
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	hoisted, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := bootstrapEager(bt, s.eval, ct)
	if err != nil {
		t.Fatal(err)
	}

	if hoisted.Level != eager.Level {
		t.Fatalf("hoisted bootstrap restored level %d, eager %d", hoisted.Level, eager.Level)
	}
	errHoisted := maxErr(s.encoder.Decode(s.dec.DecryptNew(hoisted)), values)
	errEager := maxErr(s.encoder.Decode(s.dec.DecryptNew(eager)), values)
	t.Logf("bootstrap: hoisted err %.3g, eager err %.3g", errHoisted, errEager)
	if errHoisted > 2e-2 {
		t.Fatalf("hoisted bootstrap error %g above budget 2e-2", errHoisted)
	}
	if errHoisted > 2*errEager+1e-9 {
		t.Fatalf("hoisted bootstrap error %g worse than eager %g beyond jitter", errHoisted, errEager)
	}
}

func TestRotateHoistedMissingKeyPanics(t *testing.T) {
	s := newTestSetup(t, 2, []int{1})
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(44))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, 2, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing rotation key")
		}
	}()
	s.eval.RotateHoisted(ct, []int{1, 2})
}
