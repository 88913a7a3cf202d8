package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"bts/internal/ckks"
	"bts/internal/serve"
)

// serveOpenRate is phase 2's fixed aggregate arrival rate in jobs/s, about
// half the closed-loop capacity phase 1 measured on the commit that
// introduced this benchmark (2-CPU x86 host).
const serveOpenRate = 20

// serveTolerance bounds a served result's maximum absolute error.
const serveTolerance = 1e-3

// sampleEvery is the stride at which served results are kept for
// decryption; every tenant's final result of a phase is checked too.
const sampleEvery = 8

// smallLiteral is btsserve's "small" preset: LogN=12, L=7, dnum=3.
func smallLiteral(toy bool) ckks.ParametersLiteral {
	logN := 12
	if toy {
		logN = 11
	}
	return ckks.ParametersLiteral{LogN: logN, LogQ: []int{50, 40, 40, 40, 40, 40, 40, 40}, LogP: 51,
		Dnum: 3, LogScale: 40, H: 64}
}

// dagRotations is the DAG tenant's rotation fan; the scheduler serves the
// four rotations of one register from a single hoisted decomposition.
var dagRotations = []int{1, 2, 4, 8}

// pmulVariants is how many distinct pmul vectors the DAG tenant draws from,
// so the server's per-session encoding cache is exercised and mostly hits.
const pmulVariants = 4

// serverLatencyKey carries a *int64 through a request context; the
// transport wrapper stores the server's X-BTS-Latency-Us header there.
type serverLatencyKey struct{}

// latencyTransport records the server-side latency header of every response
// whose request context carries a serverLatencyKey cell.
type latencyTransport struct{ base http.RoundTripper }

func (lt latencyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := lt.base.RoundTrip(req)
	if cell, ok := req.Context().Value(serverLatencyKey{}).(*int64); ok && err == nil {
		if us, perr := strconv.ParseInt(resp.Header.Get("X-BTS-Latency-Us"), 10, 64); perr == nil {
			*cell = us
		}
	}
	return resp, err
}

func init() {
	http.DefaultTransport = latencyTransport{base: http.DefaultTransport}
}

// tenant is one client of the server.
type tenant struct {
	name    string
	dag     bool
	api     *serve.Client
	encoder *ckks.Encoder
	dec     *ckks.Decryptor
	rlk     *ckks.SwitchingKey
	rtks    *ckks.RotationKeySet
	inputs  []*ckks.Ciphertext // slot form: a and b, uploaded every job
	want    [][]complex128     // expected result per job variant
	vals    [][]float64        // DAG form: pmul vectors per variant
}

// jobResult is one served job.
type jobResult struct {
	variant   int
	due, sent time.Time
	done      time.Time
	serverUs  int64
	ct        *ckks.Ciphertext
	err       error
}

// do submits job number k of the tenant's stream.
func (t *tenant) do(k int, res *jobResult) {
	ctx := context.WithValue(context.Background(), serverLatencyKey{}, &res.serverUs)
	res.sent = time.Now()
	if !t.dag {
		res.ct, res.err = t.api.DoContext(ctx, t.name, []serve.Op{
			{Kind: serve.OpRotate, A: 0, By: 1},
			{Kind: serve.OpMul, A: 2, B: 1},
			{Kind: serve.OpRescale, A: 3},
			{Kind: serve.OpAdd, A: 4, B: 0},
		}, t.inputs...)
	} else {
		res.variant = k % len(t.vals)
		ops := make([]serve.Op, 0, 9)
		for _, by := range dagRotations {
			ops = append(ops, serve.Op{Kind: serve.OpRotate, Ra: "$x", Out: fmt.Sprintf("$r%d", by), By: by})
		}
		ops = append(ops,
			serve.Op{Kind: serve.OpAdd, Ra: "$r1", Rb: "$r2", Out: "$a"},
			serve.Op{Kind: serve.OpAdd, Ra: "$r4", Rb: "$r8", Out: "$b"},
			serve.Op{Kind: serve.OpAdd, Ra: "$a", Rb: "$b", Out: "$s"},
			serve.Op{Kind: serve.OpMulPlain, Ra: "$s", Out: "$p", Vals: t.vals[res.variant]},
			serve.Op{Kind: serve.OpRescale, Ra: "$p", Out: "$o"},
		)
		var outs []*ckks.Ciphertext
		outs, res.err = t.api.DoDAG(ctx, t.name, nil, ops, []string{"$o"})
		if res.err == nil {
			res.ct = outs[0]
		}
	}
	res.done = time.Now()
}

// check decrypts a served result against the tenant's reference.
func (t *tenant) check(res *jobResult) (float64, error) {
	got := decoded(t.encoder.Decode(t.dec.DecryptNew(res.ct)))
	e := maxAbsErr(got, t.want[res.variant])
	if !(e <= serveTolerance) {
		return e, fmt.Errorf("%s: result error %.3g over tolerance %.3g", t.name, e, serveTolerance)
	}
	return e, nil
}

// serveState is a running serve-mix workload.
type serveState struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{} // closed when the HTTP serve loop has returned
	base    string
	ctx     *ckks.Context // client side
	tenants []*tenant
	openMs  []float64
	warm    *phaseResult // each tenant's first job, run during setup
}

func (st *serveState) close() {
	st.httpSrv.Close()
	<-st.served
	st.srv.Close()
	if st.ctx != nil {
		st.ctx.Close()
	}
}

// setupServe starts the server on loopback, opens both tenants' sessions
// with their keys, uploads the DAG tenant's register and runs one job per
// tenant: the first job of a session builds its evaluator, so its cost
// counts as setup.
func setupServe(cfg config) (*serveState, error) {
	params, err := ckks.NewParameters(smallLiteral(cfg.toy))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Params: params, Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &serveState{srv: srv, httpSrv: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(st.served)
		_ = st.httpSrv.Serve(ln)
	}()
	if st.ctx, err = ckks.NewContext(params); err != nil {
		st.close()
		return nil, err
	}
	st.ctx.SetWorkers(engineWorkers)

	rng := rand.New(rand.NewSource(cfg.seed))
	slots := params.Slots()
	for i, dag := range []bool{false, true} {
		t := &tenant{name: "tenant-slot", dag: dag, encoder: ckks.NewEncoder(st.ctx)}
		rots := []int{1}
		if dag {
			t.name, rots = "tenant-dag", dagRotations
		}
		kg := ckks.NewKeyGenerator(st.ctx, cfg.seed*1000+int64(21+i))
		sk := kg.GenSecretKey()
		t.rlk = kg.GenRelinearizationKey(sk)
		t.rtks = kg.GenRotationKeys(sk, rots, false)
		t.dec = ckks.NewDecryptor(st.ctx, sk)
		enc := ckks.NewEncryptorSK(st.ctx, sk, cfg.seed*1000+int64(31+i))
		t.api = serve.NewClient(st.base, st.ctx)
		start := time.Now()
		if err := t.api.OpenSession(t.name, t.rlk, t.rtks); err != nil {
			st.close()
			return nil, err
		}
		st.openMs = append(st.openMs, ms(time.Since(start)))

		encrypt := func(v []complex128) (*ckks.Ciphertext, error) {
			pt, err := t.encoder.Encode(v, params.MaxLevel(), params.Scale)
			if err != nil {
				return nil, err
			}
			return enc.EncryptNew(pt)
		}
		x := make([]complex128, slots)
		for j := range x {
			x[j] = complex(rng.Float64()-0.5, 0)
		}
		if !dag {
			b := make([]complex128, slots)
			want := make([]complex128, slots)
			for j := range b {
				b[j] = complex(rng.Float64()-0.5, 0)
			}
			for j := range want {
				want[j] = x[(j+1)%slots]*b[j] + x[j]
			}
			t.want = [][]complex128{want}
			for _, v := range [][]complex128{x, b} {
				ct, err := encrypt(v)
				if err != nil {
					st.close()
					return nil, err
				}
				t.inputs = append(t.inputs, ct)
			}
		} else {
			ct, err := encrypt(x)
			if err != nil {
				st.close()
				return nil, err
			}
			if _, err := t.api.DoDAG(context.Background(), t.name, []string{"$x"}, nil, nil, ct); err != nil {
				st.close()
				return nil, fmt.Errorf("register upload: %w", err)
			}
			for v := 0; v < pmulVariants; v++ {
				vals := make([]float64, 8)
				for j := range vals {
					vals[j] = 0.25 + 0.75*rng.Float64()
				}
				want := make([]complex128, slots)
				for j := range want {
					for _, by := range dagRotations {
						want[j] += x[(j+by)%slots]
					}
					want[j] *= complex(vals[j%len(vals)], 0)
				}
				t.vals = append(t.vals, vals)
				t.want = append(t.want, want)
			}
		}
		st.tenants = append(st.tenants, t)
	}
	st.warm = &phaseResult{jobs: make([][]*jobResult, len(st.tenants))}
	for i, t := range st.tenants {
		res := &jobResult{}
		t.do(0, res)
		st.warm.jobs[i] = append(st.warm.jobs[i], res)
	}
	return st, nil
}

// phaseResult gathers one phase's jobs per tenant.
type phaseResult struct {
	jobs [][]*jobResult // by tenant
	wall time.Duration  // with stolen CPU time taken out
	// kept is the share of CPU time not stolen during the phase; job
	// latencies are scaled by it like every other timing.
	kept float64
}

// finish records the phase's wall time and unstolen share.
func (pr *phaseResult) finish(sm stealMeter, start time.Time) {
	pr.kept = 1 - sm.frac()
	pr.wall = time.Duration(float64(time.Since(start)) * pr.kept)
}

// closedLoop runs each tenant on its own connection, back to back, until
// the deadline.
func (st *serveState) closedLoop(tr *tracer, until time.Time) *phaseResult {
	pr := &phaseResult{jobs: make([][]*jobResult, len(st.tenants))}
	root := tr.begin("loadgen.closed", spanRef{}, 0, noLevel)
	sm, start := startSteal(), time.Now()
	var wg sync.WaitGroup
	for i, t := range st.tenants {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			for k := 0; time.Now().Before(until); k++ {
				res := &jobResult{}
				s := tr.begin("loadgen.job."+t.name, root, uint64(k), noLevel)
				t.do(k, res)
				s.end()
				res.due = res.sent
				pr.keep(i, res)
			}
		}(i, t)
	}
	wg.Wait()
	pr.finish(sm, start)
	root.end()
	return pr
}

// openLoop sends jobs on a fixed schedule at serveOpenRate jobs/s in
// aggregate: arrivals every 1/rate, tenants assigned by a seeded shuffle of
// each block of four arrivals (two per tenant). Each tenant sends on its
// own connection in due order; a job is timed from when it was due.
func (st *serveState) openLoop(tr *tracer, seed int64, dur time.Duration) *phaseResult {
	n := int(dur.Seconds() * serveOpenRate)
	rng := rand.New(rand.NewSource(seed))
	due := make([][]time.Duration, len(st.tenants))
	interval := time.Second / serveOpenRate
	for blk := 0; blk*4 < n; blk++ {
		order := []int{0, 0, 1, 1}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for j, t := range order {
			if k := blk*4 + j; k < n {
				due[t] = append(due[t], time.Duration(k)*interval)
			}
		}
	}
	pr := &phaseResult{jobs: make([][]*jobResult, len(st.tenants))}
	root := tr.begin("loadgen.open", spanRef{}, 0, noLevel)
	sm, start := startSteal(), time.Now()
	var wg sync.WaitGroup
	for i, t := range st.tenants {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			for k, off := range due[i] {
				res := &jobResult{due: start.Add(off)}
				if d := time.Until(res.due); d > 0 {
					time.Sleep(d)
				}
				s := tr.begin("loadgen.job."+t.name, root, uint64(k), noLevel)
				t.do(k, res)
				s.end()
				pr.keep(i, res)
			}
		}(i, t)
	}
	wg.Wait()
	pr.finish(sm, start)
	root.end()
	return pr
}

// verify tallies a phase and decrypts every sampleEvery-th result and each
// tenant's last one. It returns the largest error seen.
func (st *serveState) verify(pr *phaseResult, c *opCount) float64 {
	worst := 0.0
	for i, jobs := range pr.jobs {
		t := st.tenants[i]
		for k, res := range jobs {
			c.Sent++
			if res.err != nil {
				c.Failed++
				fmt.Fprintf(os.Stderr, "serve-mix: %s job %d: %v\n", t.name, k, res.err)
				continue
			}
			if k%sampleEvery == 0 || k == len(jobs)-1 {
				e, err := t.check(res)
				if e > worst {
					worst = e
				}
				if err != nil {
					c.Failed++
					fmt.Fprintf(os.Stderr, "serve-mix: job %d: %v\n", k, err)
					continue
				}
			}
			c.OK++
		}
	}
	return worst
}

// keep appends a tenant's job result. Only every sampleEvery-th result
// and the latest one keep their ciphertext for verification, so a phase
// holds a bounded number of results in memory.
func (pr *phaseResult) keep(i int, res *jobResult) {
	if k := len(pr.jobs[i]) - 1; k >= 0 && k%sampleEvery != 0 {
		pr.jobs[i][k].ct = nil
	}
	pr.jobs[i] = append(pr.jobs[i], res)
}

// count returns the number of jobs in a phase.
func (pr *phaseResult) count() int {
	n := 0
	for _, jobs := range pr.jobs {
		n += len(jobs)
	}
	return n
}

// collect returns f over every successful job of the phase.
func (pr *phaseResult) collect(f func(*jobResult) float64) []float64 {
	var out []float64
	for _, jobs := range pr.jobs {
		for _, res := range jobs {
			if res.err == nil {
				out = append(out, f(res))
			}
		}
	}
	return out
}

// scrape fetches and parses the server's /metrics.
func (st *serveState) scrape() (map[string]float64, error) {
	resp, err := http.Get(st.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b)), nil
}

func runServe(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	setupCount := rep.count("setup")
	var st *serveState
	var setups, openMs []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
			st = nil
			freeMemory()
		}
		sm, start := startSteal(), time.Now()
		s, err := setupServe(cfg)
		setupCount.Sent++
		if err != nil {
			setupCount.Failed++
			return nil, err
		}
		setupCount.OK++
		setups = append(setups, sm.unstolen(time.Since(start)).Seconds())
		openMs = append(openMs, s.openMs...)
		st = s
	}
	defer st.close()
	p := st.ctx.Params
	rep.shape = map[string]any{"N": p.N(), "L": p.MaxLevel(), "dnum": p.Dnum, "slots": p.Slots(),
		"open_rate_per_s": serveOpenRate, "connections": len(st.tenants)}

	st.verify(st.warm, rep.count("warmup"))

	closedShare, openShare := 0.5, 0.5
	var plainCap float64
	var before map[string]float64
	if cfg.trace {
		// Untraced closed-loop segment: the baseline of the overhead.
		pr := st.closedLoop(tr, deadline(cfg, 0.2))
		st.verify(pr, rep.count("closed-untraced"))
		plainCap = float64(pr.count()) / pr.wall.Seconds()
		var err error
		if before, err = st.scrape(); err != nil {
			return nil, err
		}
		tr.setOn(true)
		closedShare, openShare = 0.25, 0.4
	}
	for _, t := range st.tenants {
		t.api.ResetWireBytes()
	}
	closed := st.closedLoop(tr, deadline(cfg, closedShare))
	worst := st.verify(closed, rep.count("closed"))
	wire := make([]int64, len(st.tenants))
	for i, t := range st.tenants {
		in, out := t.api.WireBytes()
		wire[i] = in + out
	}
	open := st.openLoop(tr, cfg.seed, time.Duration(cfg.seconds*openShare*float64(time.Second)))
	openCount := rep.count("open")
	if e := st.verify(open, openCount); e > worst {
		worst = e
	}
	capacity := float64(closed.count()) / closed.wall.Seconds()
	fromDue := open.collect(func(r *jobResult) float64 { return ms(r.done.Sub(r.due)) * open.kept })
	if !cfg.trace {
		rep.endToEnd["setup_s"] = median(setups)
		rep.endToEnd["op_p50_ms"] = quantile(fromDue, 0.5)
		rep.endToEnd["op_p90_ms"] = quantile(fromDue, 0.9)
		rep.endToEnd["throughput_per_s"] = capacity
		rep.endToEnd["tmult_a_slot_ns"] = 1e9 / (capacity * float64(p.Slots()))
		rep.endToEnd["prec_bits"] = precBits(worst)
		return rep, nil
	}

	after, err := st.scrape()
	if err != nil {
		return nil, err
	}
	tr.setOn(false)
	pl := rep.perLayer
	pl["bench.trace_overhead_frac"] = plainCap/capacity - 1
	jobs := closed.count() + open.count()
	snapMetrics(after).fill(snapMetrics(before), jobs, pl)
	delta := func(name string) float64 { return after[name] - before[name] }
	if n := delta("bts_linger_wait_seconds_count"); n > 0 {
		pl["serve.linger_wait_ms"] = delta("bts_linger_wait_seconds_sum") / n * 1e3
	}
	if n := delta("bts_batch_size_count"); n > 0 {
		pl["serve.batch_size_mean"] = delta("bts_batch_size_sum") / n
	}
	dagJobs := len(closed.jobs[1]) + len(open.jobs[1])
	if dagJobs > 0 {
		pl["serve.hoist_shared_per_job"] = delta("bts_hoist_shared_decompositions_total") / float64(dagJobs)
	}
	if n := delta("bts_encoding_cache_hits_total") + delta("bts_encoding_cache_misses_total"); n > 0 {
		pl["serve.encoding_hit_frac"] = delta("bts_encoding_cache_hits_total") / n
	}
	pl["serve.open_session_ms"] = median(openMs)
	serverMs := open.collect(func(r *jobResult) float64 { return float64(r.serverUs) / 1e3 })
	pl["serve.server_p50_ms"] = median(serverMs)
	pl["serve.transport_p50_ms"] = median(open.collect(func(r *jobResult) float64 {
		return ms(r.done.Sub(r.sent)) - float64(r.serverUs)/1e3
	}))
	if n := len(closed.jobs[0]); n > 0 {
		pl["wire.bytes_per_job.slot"] = float64(wire[0]) / float64(n)
	}
	if n := len(closed.jobs[1]); n > 0 {
		pl["wire.bytes_per_job.dag"] = float64(wire[1]) / float64(n)
	}
	pl["loadgen.late_p90_ms"] = quantile(open.collect(func(r *jobResult) float64 { return ms(r.sent.Sub(r.due)) }), 0.9)
	pl["loadgen.sent"] = float64(openCount.Sent)
	pl["loadgen.failed"] = float64(openCount.Failed)

	// Client-side layer sheets at the same shape: evaluator ops with a
	// probe key set, ring kernels, the codec, and the engine speed-up of
	// the slot tenant's job body.
	slot := st.tenants[0]
	kg := ckks.NewKeyGenerator(st.ctx, cfg.seed*1000+41)
	sk := kg.GenSecretKey()
	probeEv := ckks.NewEvaluator(st.ctx, slot.encoder, kg.GenRelinearizationKey(sk),
		kg.GenRotationKeys(sk, opRotations(), false))
	enc := ckks.NewEncryptorSK(st.ctx, sk, cfg.seed*1000+42)
	pt, err := slot.encoder.Encode(make([]complex128, p.Slots()), p.MaxLevel(), p.Scale)
	if err != nil {
		return nil, err
	}
	top, err := enc.EncryptNew(pt)
	if err != nil {
		return nil, err
	}
	tr.setOn(true)
	opProbe(tr, st.ctx, probeEv, top, 5)
	tr.setOn(false)
	fillOpMetrics(tr, pl)
	kernelSheet(st.ctx, cfg.seed, 30, pl)
	wireSheet(st.ctx, slot.inputs[0], 30, pl)
	jobEv := ckks.NewEvaluator(st.ctx, slot.encoder, slot.rlk, slot.rtks)
	pl["ring.engine.speedup_2w"] = speedup2w(st.ctx, 3, func() {
		for i := 0; i < 20; i++ {
			a, b := slot.inputs[0], slot.inputs[1]
			r := jobEv.Rotate(a, 1)
			m := jobEv.MulRelin(r, b)
			s := jobEv.Rescale(m)
			o := jobEv.Add(s, a)
			for _, c := range []*ckks.Ciphertext{r, m, s, o} {
				st.ctx.PutCiphertext(c)
			}
		}
	})
	return rep, nil
}
