package main

import (
	"bufio"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"bts/internal/ckks"
	"bts/internal/ring"
	"bts/internal/telemetry"
	"bts/internal/wire"
)

// timeMedian runs f once to warm up, then reps times, and returns the
// median duration in microseconds.
func timeMedian(reps int, f func()) float64 {
	f()
	samples := make([]float64, reps)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(samples)
}

// uniformRows returns one row of N uniform residues per modulus.
func uniformRows(rng *rand.Rand, n int, ms []*ring.Modulus) [][]uint64 {
	rows := make([][]uint64, len(ms))
	for i, m := range ms {
		rows[i] = make([]uint64, n)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % m.Q
		}
	}
	return rows
}

// kernelSheet times the ring kernels at the context's (N, top level) shape
// on uniform residues: NTT, iNTT, BasisExtender.Convert at the ModUp shape
// (decomposition group 0 to the rest of the basis) and the ModDown shape (P
// to Q), MulCoeffsAndAdd and AutomorphismNTT. Uniform inputs matter: small
// structured residues never take BConv's centering branch the way real
// ciphertext digits do. Bytes and ops are computed, not counted: bytes are
// the compulsory traffic (each input row read once, each output row written
// once, 8 bytes a residue); ops are radix-2 butterflies for the NTT and
// modular multiplies for BConv.
func kernelSheet(ctx *ckks.Context, seed int64, reps int, out map[string]float64) {
	rq, rp := ctx.RingQ, ctx.RingP
	level := rq.MaxLevel()
	limbs := float64(level + 1)
	n := float64(rq.N)
	rng := rand.New(rand.NewSource(seed))
	a := rq.NewPolyLevel(level)
	b := rq.NewPolyLevel(level)
	dst := rq.NewPolyLevel(level)
	rq.SampleUniform(rng, a, level)
	rq.SampleUniform(rng, b, level)
	scratch := rq.CopyNew(a, level)

	nttUs := timeMedian(reps, func() { rq.NTT(scratch, level) })
	out["ring.ntt_us"] = nttUs
	out["ring.intt_us"] = timeMedian(reps, func() { rq.INTT(scratch, level) })
	nttBytes := 16 * n * limbs
	nttOps := limbs * n / 2 * float64(rq.LogN)
	out["ring.ntt_gbps_computed"] = nttBytes / (nttUs * 1e3)
	out["ring.ntt_ops_per_byte_computed"] = nttOps / nttBytes

	out["ring.mulacc_us"] = timeMedian(reps, func() { rq.MulCoeffsAndAdd(a, b, dst, level) })
	g := rq.GaloisElement(5)
	out["ring.automorphism_us"] = timeMedian(reps, func() { rq.AutomorphismNTT(a, g, dst, level) })

	alpha := ctx.Params.Alpha()
	if alpha > level+1 {
		alpha = level + 1
	}
	from := rq.Moduli[:alpha]
	to := append(append([]*ring.Modulus{}, rq.Moduli[alpha:level+1]...), rp.Moduli...)
	up, err := ring.NewBasisExtender(from, to)
	if err != nil {
		panic(err)
	}
	up.SetEngine(rq.Exec())
	upIn, upOut := uniformRows(rng, rq.N, from), uniformRows(rng, rq.N, to)
	upUs := timeMedian(reps, func() { up.Convert(upIn, upOut) })
	out["ring.bconv_modup_us"] = upUs
	nf, nt := float64(len(from)), float64(len(to))
	bconvBytes := 8 * n * (nf + nt)
	bconvOps := n*nf + n*nf*nt
	out["ring.bconv_gbps_computed"] = bconvBytes / (upUs * 1e3)
	out["ring.bconv_ops_per_byte_computed"] = bconvOps / bconvBytes

	down, err := ring.NewBasisExtender(rp.Moduli, rq.Moduli[:level+1])
	if err != nil {
		panic(err)
	}
	down.SetEngine(rq.Exec())
	downIn, downOut := uniformRows(rng, rq.N, rp.Moduli), uniformRows(rng, rq.N, rq.Moduli[:level+1])
	out["ring.bconv_moddown_us"] = timeMedian(reps, func() { down.Convert(downIn, downOut) })
}

// wireSheet times the codec on one ciphertext: serialization and parsing.
func wireSheet(ctx *ckks.Context, ct *ckks.Ciphertext, reps int, out map[string]float64) {
	codec := wire.NewCodec(ctx)
	var buf []byte
	out["wire.encode_us"] = timeMedian(reps, func() {
		b, err := codec.MarshalCiphertext(ct)
		if err != nil {
			panic(err)
		}
		buf = b
	})
	out["wire.decode_us"] = timeMedian(reps, func() {
		if _, err := codec.UnmarshalCiphertext(buf); err != nil {
			panic(err)
		}
	})
}

// fanRotations is the hoisted rotation fan every workload's op set uses;
// fullRotation is its single full key-switch rotation.
var fanRotations = []int{1, 2, 3, 4}

const fullRotation = 5

// opRotations lists the rotation keys the fan and the full rotation need.
func opRotations() []int { return append(append([]int{}, fanRotations...), fullRotation) }

// opProbe times MulRelin, Rescale, a hoisted 4-rotation fan and a full
// Rotate on ct at its level and at level 1, reps times each, as spans
// named ckks.<op> carrying their input level. The evaluator needs the
// relinearization key and rotation keys for fanRotations and fullRotation.
func opProbe(tr *tracer, ctx *ckks.Context, ev *ckks.Evaluator, ct *ckks.Ciphertext, reps int) {
	root := tr.begin("bench.op_probe", spanRef{}, 0, noLevel)
	defer root.end()
	for _, lvl := range []int{ct.Level, 1} {
		x := ct.CopyNew(ctx)
		x.DropLevel(lvl)
		for i := 0; i < reps; i++ {
			s := tr.begin("ckks.mulrelin", root, 0, lvl)
			m := ev.MulRelin(x, x)
			s.end()
			s = tr.begin("ckks.rescale", root, 0, lvl)
			r := ev.Rescale(m)
			s.end()
			s = tr.begin("ckks.rotfan4", root, 0, lvl)
			fan := ev.RotateHoisted(x, fanRotations)
			s.end()
			s = tr.begin("ckks.rotate", root, 0, lvl)
			rot := ev.Rotate(x, fullRotation)
			s.end()
			for _, c := range fan {
				ctx.PutCiphertext(c)
			}
			ctx.PutCiphertext(m)
			ctx.PutCiphertext(r)
			ctx.PutCiphertext(rot)
		}
	}
}

// fillOpMetrics reads the ckks.<op> spans into the top- and low-level
// per-op medians: "top" is the highest level the op was recorded at, "low"
// is level 1.
func fillOpMetrics(tr *tracer, out map[string]float64) {
	for _, op := range []string{"mulrelin", "rotate", "rotfan4", "rescale"} {
		name := "ckks." + op
		if top := tr.maxLevel(name); top != noLevel {
			out[name+".top_ms"] = median(tr.durations(name, top))
		}
		out[name+".low_ms"] = median(tr.durations(name, 1))
	}
}

// engineSnap is a snapshot of the engine and scratch-pool counters.
type engineSnap struct {
	runs, tasks, stolen, blockRuns, sharded, gets, misses float64
}

func snapContext(st *telemetry.ContextStats) engineSnap {
	e := &st.Engine
	return engineSnap{
		runs:      float64(e.Runs.Load() + e.InlineRuns.Load()),
		tasks:     float64(e.Tasks.Load()),
		stolen:    float64(e.StolenTasks.Load()),
		blockRuns: float64(e.BlockRuns.Load()),
		sharded:   float64(e.ShardedRuns.Load()),
		gets:      float64(st.PoolQ.PolyGets.Load() + st.PoolQ.RowGets.Load() + st.PoolP.PolyGets.Load() + st.PoolP.RowGets.Load()),
		misses:    float64(st.PoolQ.PolyMisses.Load() + st.PoolQ.RowMisses.Load() + st.PoolP.PolyMisses.Load() + st.PoolP.RowMisses.Load()),
	}
}

// snapMetrics builds the same snapshot from a /metrics scrape.
func snapMetrics(m map[string]float64) engineSnap {
	return engineSnap{
		runs:      m["bts_engine_runs_total"] + m["bts_engine_inline_runs_total"],
		tasks:     m["bts_engine_tasks_total"],
		stolen:    m["bts_engine_stolen_tasks_total"],
		blockRuns: m["bts_engine_block_runs_total"],
		sharded:   m["bts_engine_sharded_runs_total"],
		gets:      m["bts_pool_gets_total"],
		misses:    m["bts_pool_misses_total"],
	}
}

// fill writes the engine metrics of the interval (s - prev) over jobs units
// of work.
func (s engineSnap) fill(prev engineSnap, jobs int, out map[string]float64) {
	d := engineSnap{s.runs - prev.runs, s.tasks - prev.tasks, s.stolen - prev.stolen,
		s.blockRuns - prev.blockRuns, s.sharded - prev.sharded, s.gets - prev.gets, s.misses - prev.misses}
	if jobs > 0 {
		out["ring.engine.runs_per_job"] = d.runs / float64(jobs)
	}
	if d.runs > 0 {
		out["ring.engine.tasks_per_run"] = d.tasks / d.runs
	}
	if d.tasks > 0 {
		out["ring.engine.stolen_frac"] = d.stolen / d.tasks
	}
	if d.blockRuns > 0 {
		out["ring.engine.sharded_frac"] = d.sharded / d.blockRuns
	}
	if d.gets > 0 {
		out["ring.pool.miss_frac"] = d.misses / d.gets
	}
}

// parseMetrics reads a Prometheus text exposition into series sums keyed by
// metric name (labels summed over).
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		out[name] += v
	}
	return out
}

// speedup2w times unit at 1 and at 2 engine workers (best of reps each) and
// returns t(1)/t(2). The context is left at engineWorkers.
func speedup2w(ctx *ckks.Context, reps int, unit func()) float64 {
	best := func() float64 {
		b := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			unit()
			if el := time.Since(start).Seconds(); b == 0 || el < b {
				b = el
			}
		}
		return b
	}
	ctx.SetWorkers(1)
	one := best()
	ctx.SetWorkers(engineWorkers)
	two := best()
	return one / two
}
