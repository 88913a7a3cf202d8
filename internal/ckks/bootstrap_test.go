package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestChebyshevCoeffsNumeric(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(2*math.Pi*x) / (2 * math.Pi) }
	coeffs := ChebyshevCoeffs(func(tt float64) float64 { return f(6 * tt) }, -1, 1, 63)
	for _, y := range []float64{-5.9, -5, -1.01, 0.004, 3.99, 5.5, 5.9} {
		tt := y / 6
		got := EvalChebyshevDirect(coeffs, tt)
		want := f(y)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("cheb approx at y=%f: got %g want %g", y, got, want)
		}
	}
}

func TestChebDivideIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		d := 8 + rng.Intn(56)
		g := 4 << rng.Intn(3) // 4, 8, or 16
		if g > d {
			g = 4
		}
		p := make([]float64, d+1)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		q, r := chebDivide(p, g)
		// Check p(t) == q(t)*T_g(t) + r(t) at sample points.
		for _, tt := range []float64{-0.9, -0.3, 0.1, 0.77} {
			lhs := EvalChebyshevDirect(p, tt)
			tg := math.Cos(float64(g) * math.Acos(tt))
			rhs := EvalChebyshevDirect(q, tt)*tg + EvalChebyshevDirect(r, tt)
			if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
				t.Fatalf("chebDivide identity failed: d=%d g=%d t=%f lhs=%g rhs=%g", d, g, tt, lhs, rhs)
			}
		}
	}
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	s := newTestSetup(t, 2, []int{})
	rng := rand.New(rand.NewSource(51))
	n := s.params.Slots()
	// Input values in [-1, 1].
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 0)
	}
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	// A degree-7 polynomial fits the 5-level toy chain.
	coeffs := ChebyshevCoeffs(func(x float64) float64 { return math.Tanh(2 * x) }, -1, 1, 7)
	out, err := s.eval.EvalChebyshev(ct, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(out))
	for i := range values {
		want := EvalChebyshevDirect(coeffs, real(values[i]))
		if math.Abs(real(got[i])-want) > 1e-3 {
			t.Fatalf("slot %d: got %g want %g", i, real(got[i]), want)
		}
	}
}

func TestLinearTransformIdentity(t *testing.T) {
	s := newTestSetup(t, 1, []int{})
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(52))
	values := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	diags := map[int][]complex128{0: ones(n)}
	lt, err := NewLinearTransform(s.encoder, diags, lvl, float64(s.params.Q[lvl]))
	if err != nil {
		t.Fatal(err)
	}
	out := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
	got := s.encoder.Decode(s.dec.DecryptNew(out))
	if e := maxErr(got, values); e > 1e-5 {
		t.Fatalf("identity transform error %g", e)
	}
}

func ones(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestLinearTransformDense(t *testing.T) {
	// A random dense 16-diagonal matrix against plain evaluation.
	nDiags := 16
	rots := make([]int, 0)
	for b := 1; b < nDiags; b++ {
		rots = append(rots, b)
	}
	// n1 may group diagonals; add giant steps up to slots.
	s := newTestSetup(t, 2, allRotations(nDiags, 1<<9))
	n := s.params.Slots()
	_ = rots
	rng := rand.New(rand.NewSource(53))
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
	out := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
	got := s.encoder.Decode(s.dec.DecryptNew(out))

	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < nDiags; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("dense transform error %g", e)
	}
}

// allRotations returns every rotation either side might need for a BSGS
// transform with up to nDiags diagonals over n slots.
func allRotations(nDiags, n int) []int {
	set := map[int]bool{}
	for n1 := 1; n1 <= n; n1 <<= 1 {
		for b := 0; b < n1 && b < nDiags; b++ {
			set[b] = true
		}
		for g := 0; g*n1 < nDiags; g++ {
			set[g*n1] = true
		}
	}
	var out []int
	for r := range set {
		if r != 0 {
			out = append(out, r)
		}
	}
	return out
}

func TestLinearTransformErrors(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	if _, err := NewLinearTransform(s.encoder, map[int][]complex128{}, 1, 1024); err == nil {
		t.Fatal("expected error for empty diagonal map")
	}
	if _, err := NewLinearTransform(s.encoder, map[int][]complex128{0: make([]complex128, 3)}, 1, 1024); err == nil {
		t.Fatal("expected error for wrong diagonal length")
	}
}

// bootSetup builds a bootstrappable toy instance (LogN=10, insecure, for
// functional verification only).
func bootSetup(t testing.TB) (*testSetup, *Bootstrapper) {
	t.Helper()
	s, bt, _ := bootSetupDense(t)
	return s, bt
}

// bootSetupDense is bootSetup that also returns the dense single-stage
// oracle; the evaluator holds rotation keys for both.
func bootSetupDense(t testing.TB) (*testSetup, *Bootstrapper, *denseBootOracle) {
	t.Helper()
	params, ctx := bootContext(t)
	kg := NewKeyGenerator(ctx, 7001)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	encoder := NewEncoder(ctx)

	// Build the bootstrapper twice: first keyless to learn the rotations.
	probe := NewEvaluator(ctx, encoder, rlk, nil)
	bt0, err := NewBootstrapper(ctx, encoder, probe, DefaultBootstrapParams())
	if err != nil {
		t.Fatal(err)
	}
	// One key set covers the stage chains and the dense oracle.
	dense, err := newDenseBootOracle(bt0)
	if err != nil {
		t.Fatal(err)
	}
	rtks := kg.GenRotationKeys(sk, dedupRotations(bt0.Rotations(), dense.Rotations()), true)
	eval := NewEvaluator(ctx, encoder, rlk, rtks)
	bt, err := NewBootstrapper(ctx, encoder, eval, DefaultBootstrapParams())
	if err != nil {
		t.Fatal(err)
	}
	s := &testSetup{
		params: params, ctx: ctx, encoder: encoder, kg: kg, sk: sk,
		rlk: rlk, enc: NewEncryptorSK(ctx, sk, 7002), dec: NewDecryptor(ctx, sk), eval: eval,
	}
	return s, bt, dense
}

// bootContext builds the LogN=10 bootstrappable toy parameters (L=14,
// dnum=2) and a context over them.
func bootContext(t testing.TB) (Parameters, *Context) {
	t.Helper()
	logQ := []int{55}
	for i := 0; i < 14; i++ {
		logQ = append(logQ, 45)
	}
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     logQ,
		LogP:     55,
		Dnum:     2,
		LogScale: 45,
		H:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	return params, ctx
}

func TestBootstrapRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping round trip is expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(54))
	n := s.params.Slots()
	values := randomComplex(rng, n, 0.7)

	// Encrypt directly at level 0: a fully exhausted ciphertext.
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Level < 2 {
		t.Fatalf("bootstrap restored only %d levels", refreshed.Level)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(refreshed))
	if e := maxErr(got, values); e > 2e-2 {
		t.Fatalf("bootstrap error %g (want < 2e-2)", e)
	}
	t.Logf("bootstrap: restored to level %d, max error %.3g, scale 2^%.2f",
		refreshed.Level, maxErr(got, values), math.Log2(refreshed.Scale))

	// The refreshed ciphertext must support further multiplications.
	sq := s.eval.Rescale(s.eval.Square(refreshed))
	got = s.encoder.Decode(s.dec.DecryptNew(sq))
	want := make([]complex128, n)
	for i := range want {
		want[i] = values[i] * values[i]
	}
	if e := maxErr(got, want); e > 5e-2 {
		t.Fatalf("post-bootstrap square error %g", e)
	}
}

func TestBootstrapRejectsNonZeroLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the bootstrapping setup; skipped with -short")
	}
	s, bt := bootSetup(t)
	pt, _ := s.encoder.Encode([]complex128{0.1}, 1, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	if _, err := bt.Bootstrap(ct); err == nil {
		t.Fatal("expected error for level-1 input")
	}
}

func TestBootstrapParamsBudget(t *testing.T) {
	bp := DefaultBootstrapParams()
	if got := bp.MinLevels(); got != 13 {
		t.Fatalf("MinLevels=%d want 13 (2-stage CtS + 1 norm + 7 EvalMod + 2-stage StC + 1 margin)", got)
	}
	single := BootstrapParams{K: bp.K, SineDegree: bp.SineDegree, CtSStages: 1, StCStages: 1}
	if got := single.MinLevels(); got != 11 {
		t.Fatalf("1+1-stage MinLevels=%d want 11 (1-stage CtS + 1 norm + 7 EvalMod + 1-stage StC + 1 margin)", got)
	}
	// A chain shorter than the budget must be rejected.
	params, err := NewParameters(ParametersLiteral{
		LogN: 10, LogQ: []int{55, 45, 45, 45}, LogP: 55, Dnum: 1, LogScale: 45, H: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := NewContext(params)
	enc := NewEncoder(ctx)
	ev := NewEvaluator(ctx, enc, nil, nil)
	if _, err := NewBootstrapper(ctx, enc, ev, bp); err == nil {
		t.Fatal("expected error for insufficient levels")
	}
}

func TestModRaisePreservesMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the bootstrapping setup; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(55))
	values := randomComplex(rng, s.params.Slots(), 0.7)
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	raised := bt.modRaise(bt.eval, ct)
	if raised.Level != s.params.MaxLevel() {
		t.Fatalf("modRaise level=%d want %d", raised.Level, s.params.MaxLevel())
	}
	// Decrypting the raised ct and reducing coefficients mod q0 must give
	// back the message: decode after dropping to level 0.
	raised.DropLevel(0)
	got := s.encoder.Decode(s.dec.DecryptNew(raised))
	if e := maxErr(got, values); e > 1e-6 {
		t.Fatalf("modRaise distorted the message: %g", e)
	}
}

func TestConjugateSplitIdentity(t *testing.T) {
	// (v+conj)/2 + i·(conj-v)·i/2 must reconstruct v; checked homomorphically.
	s := newTestSetup(t, 2, []int{})
	rng := rand.New(rand.NewSource(56))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	conj := s.eval.Conjugate(ct)
	ctR := s.eval.Add(ct, conj)
	ctR.Scale *= 2
	ctI := s.eval.MulByI(s.eval.Sub(conj, ct))
	ctI.Scale *= 2
	re := s.encoder.Decode(s.dec.DecryptNew(ctR))
	im := s.encoder.Decode(s.dec.DecryptNew(ctI))
	for i := range values {
		if math.Abs(real(re[i])-real(values[i])) > 1e-5 ||
			math.Abs(real(im[i])-imag(values[i])) > 1e-5 {
			t.Fatalf("slot %d: split (%v, %v) vs %v", i, re[i], im[i], values[i])
		}
	}
	recon := s.eval.Add(ctR, s.eval.MulByI(ctI))
	got := s.encoder.Decode(s.dec.DecryptNew(recon))
	if e := maxErr(got, values); e > 1e-5 {
		t.Fatalf("conjugate split reconstruction error %g", e)
	}
}

func TestBootstrapPrecisionStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(57))
	values := randomComplex(rng, s.params.Slots(), 0.5)
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	refreshed, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(refreshed))
	var sum float64
	for i := range values {
		sum += cmplx.Abs(got[i] - values[i])
	}
	mean := sum / float64(len(values))
	t.Logf("bootstrap mean error %.3g (≈ %.1f bits)", mean, -math.Log2(mean))
	if mean > 5e-3 {
		t.Fatalf("mean bootstrap error %g too large", mean)
	}
}
