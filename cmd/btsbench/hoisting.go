package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"bts/internal/ckks"
)

// hoistingReport is the JSON document `-experiment hoisting` writes to
// stdout (CI archives it as BENCH_hoisting.json — the start of the repo's
// perf-trajectory record). It compares hoisted key-switching against the
// naive per-rotation path on k rotations of one ciphertext at the LogN=10
// bootstrap instance's parameters.
type hoistingReport struct {
	Experiment string         `json:"experiment"`
	Workers    int            `json:"workers"`
	Params     map[string]any `json:"params"`

	// Rotate: k rotations of one ciphertext, naive vs hoisted, plus the
	// bit-identity check of every hoisted output against Rotate.
	Rotate hoistingRotate `json:"rotate"`

	// DecomposeMs is the cost of the shared decomposition (iNTT + ModUp +
	// NTT over all slices); BabyGiantCostRatio is the measured cost of a
	// naive rotation (what a giant step pays) over a hoisted baby rotation
	// (permute + MAC + ModDown) — the live value of the bsgsSplit weight.
	DecomposeMs        float64 `json:"decompose_ms"`
	BabyGiantCostRatio float64 `json:"baby_giant_cost_ratio"`

	Pass bool `json:"pass"`
}

type hoistingRotate struct {
	Count        int     `json:"count"`
	NaiveMs      float64 `json:"naive_ms"`
	HoistedMs    float64 `json:"hoisted_ms"`
	Speedup      float64 `json:"speedup"`
	BitIdentical bool    `json:"bit_identical"`
}

// hoisting runs the naive-vs-hoisted comparison and exits non-zero if a
// hoisted rotation is not bit-identical to Rotate, so CI can gate on it.
func hoisting(workers int) {
	rep, err := runHoisting(workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hoisting bench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "hoisting bench: hoisted rotations not bit-identical to Rotate")
		os.Exit(1)
	}
}

func runHoisting(workers int) (*hoistingReport, error) {
	// The LogN=10 bootstrappable toy instance (same shape as the speedup
	// experiment's bootstrap row).
	logQ := []int{55}
	for i := 0; i < 14; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     10,
		LogQ:     logQ,
		LogP:     55,
		Dnum:     2,
		LogScale: 45,
		H:        8,
	})
	if err != nil {
		return nil, err
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	ctx.SetWorkers(workers)

	rep := &hoistingReport{
		Experiment: "hoisting",
		Workers:    workers,
		Params: map[string]any{
			"logN":  params.LogN,
			"L":     params.MaxLevel(),
			"dnum":  params.Dnum,
			"slots": params.Slots(),
		},
		Pass: true,
	}

	kg := ckks.NewKeyGenerator(ctx, 9001)
	sk := kg.GenSecretKey()
	encoder := ckks.NewEncoder(ctx)
	enc := ckks.NewEncryptorSK(ctx, sk, 9002)

	rng := rand.New(rand.NewSource(9003))
	n := params.Slots()
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	lvl := params.MaxLevel()
	pt, err := encoder.Encode(values, lvl, params.Scale)
	if err != nil {
		return nil, err
	}
	ct, err := enc.EncryptNew(pt)
	if err != nil {
		return nil, err
	}

	rotSet := []int{1, 2, 5, 16, 64, 100, 200}
	rtks := kg.GenRotationKeys(sk, rotSet, false)
	eval := ckks.NewEvaluator(ctx, encoder, nil, rtks)

	timeIt := func(iters int, f func()) float64 {
		f() // warm pools and permutation caches
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return time.Since(start).Seconds() * 1e3 / float64(iters)
	}

	// --- Rotations of one ciphertext: naive vs hoisted, bit-identity. ---
	rep.Rotate.Count = len(rotSet)
	rep.Rotate.NaiveMs = timeIt(5, func() {
		for _, r := range rotSet {
			ctx.PutCiphertext(eval.Rotate(ct, r))
		}
	})
	rep.Rotate.HoistedMs = timeIt(5, func() {
		for _, out := range eval.RotateHoisted(ct, rotSet) {
			ctx.PutCiphertext(out)
		}
	})
	rep.Rotate.Speedup = rep.Rotate.NaiveMs / rep.Rotate.HoistedMs
	rep.Rotate.BitIdentical = true
	hoistedOut := eval.RotateHoisted(ct, rotSet)
	for _, r := range rotSet {
		naive := eval.Rotate(ct, r)
		h := hoistedOut[r]
		if !ctx.RingQ.Equal(h.C0, naive.C0, naive.Level) || !ctx.RingQ.Equal(h.C1, naive.C1, naive.Level) {
			rep.Rotate.BitIdentical = false
			rep.Pass = false
		}
		ctx.PutCiphertext(naive)
		ctx.PutCiphertext(h)
	}

	// Measured split weights: a hoisted baby step pays (HoistedMs -
	// DecomposeMs)/count, a giant step pays a naive rotation.
	rep.DecomposeMs = timeIt(10, func() { eval.DecomposeNTT(ct).Release() })
	babyMs := (rep.Rotate.HoistedMs - rep.DecomposeMs) / float64(len(rotSet))
	if babyMs > 0 {
		rep.BabyGiantCostRatio = (rep.Rotate.NaiveMs / float64(len(rotSet))) / babyMs
	}

	return rep, nil
}

func maxAbsErrC(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		re := real(a[i]) - real(b[i])
		im := imag(a[i]) - imag(b[i])
		if re < 0 {
			re = -re
		}
		if im < 0 {
			im = -im
		}
		if re > m {
			m = re
		}
		if im > m {
			m = im
		}
	}
	return m
}
