// Package sim is the cycle-level performance and energy simulator of the BTS
// accelerator (Section 6.2 methodology): each primitive HE op of a workload
// trace is expanded into the computational pipeline of Fig. 3(a) — (i)NTT on
// the NTTU pool, BConv on the BConvUs' MMAUs, element-wise work, NoC
// exchanges — and overlapped against the off-chip streaming of evaluation
// keys, with a software-managed scratchpad caching ciphertexts (LRU) under
// the priority order temp data > prefetched evk > ct cache.
//
// Calibration caveat: the software library's bootstrap op mix changed when
// internal/ckks gained hoisted key-switching — its linear transforms now
// perform one decomposition per input plus per-rotation gather-MAC and one
// deferred ModDown per giant step, instead of a full HRot key-switch per
// baby step. The workload traces here still expand HRot into the full
// per-rotation pipeline, so the software-vs-simulator calibration
// cross-check (CrossCheckBootstrap, calibrate.go) counts hoisted rotations
// separately: the ckks evaluator's op counters report full rotations
// (giants, conjugations) apart from hoisted babies, and the report
// re-expresses the measured mix in full-key-switch equivalents before
// comparing against the trace. `btsbench -experiment table2` runs this
// cross-check against the real S=3 software bootstrap and archives it in
// BENCH_table2.json.
//
// A second calibration caveat arrived with coefficient-block sharding
// (ring.Engine.RunBlocks): software timings of *low-level* ops (active
// limbs < cores) no longer degrade toward serial as the limb count shrinks,
// because each residue row is additionally sharded into coefficient blocks —
// including within each NTT butterfly stage. A software-vs-simulator
// cross-check must therefore not model the host as "limb-parallel only":
// per-op wall times at level ≤ 3 are now roughly level-independent up to
// the block-size floor (1024 coefficients), whereas traces replayed here
// assume the accelerator's fixed lane mapping throughout.
// `btsbench -experiment sharding` reports the measured low-level timings
// (BENCH_sharding.json) to calibrate against.
package sim

import (
	"fmt"
	"math"

	"bts/internal/arch"
	"bts/internal/params"
	"bts/internal/workload"
)

// Simulator executes workload traces on one hardware configuration and one
// CKKS instance.
type Simulator struct {
	HW   arch.Config
	Inst params.Instance
	PW   arch.PowerModel

	cache *lru

	// RecordTimeline enables Fig. 8-style per-phase event capture.
	RecordTimeline bool
	Timeline       []TimelineEvent
}

// TimelineEvent is one phase of one op (for the Fig. 8 reproduction).
type TimelineEvent struct {
	Op         string
	Phase      string // "evk-load", "ct-load", "NTT", "BConv", "elementwise", "NoC"
	Start, End float64
	// ScratchpadBytes is the occupancy after the op (Fig. 8 bottom panel).
	ScratchpadBytes int64
}

// Stats aggregates a trace execution.
type Stats struct {
	Time     float64 // seconds
	BootTime float64 // portion inside bootstrapping sub-traces (Fig. 7b)

	PerKind map[workload.OpKind]float64

	HBMBytes    int64
	CacheHits   int64
	CacheMiss   int64
	BusyHBM     float64
	BusyNTTU    float64
	BusyBConv   float64
	BusyElt     float64
	BusyNoC     float64
	ScratchBusy float64 // scratchpad-bandwidth busy-equivalent seconds

	EnergyJ float64
}

// Utilization returns busy/total for the named resource.
func (s Stats) Utilization(resource string) float64 {
	if s.Time == 0 {
		return 0
	}
	switch resource {
	case "HBM":
		return s.BusyHBM / s.Time
	case "NTTU":
		return s.BusyNTTU / s.Time
	case "BConvU":
		return s.BusyBConv / s.Time
	case "NoC":
		return s.BusyNoC / s.Time
	case "Scratchpad":
		return s.ScratchBusy / s.Time
	}
	return 0
}

// EDAP returns the energy-delay-area product (J·s·mm², Fig. 10).
func (s Stats) EDAP() float64 { return s.EnergyJ * s.Time * arch.TotalArea() }

// New builds a simulator. It panics on invalid configurations (programming
// error in experiment setup).
func New(hw arch.Config, inst params.Instance) *Simulator {
	if err := hw.Validate(); err != nil {
		panic(err)
	}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	s := &Simulator{HW: hw, Inst: inst, PW: arch.DefaultPower()}
	s.resetCache()
	return s
}

func (s *Simulator) resetCache() {
	// Scratchpad partitioning (Section 6.2): temporary data and the evk
	// staging buffer are pinned; the remainder is the SW-managed ct cache.
	// The evk is consumed in streaming fashion, so only one decomposition
	// slice needs to be staged at a time (double buffering).
	avail := s.HW.ScratchpadBytes - s.pinnedBytes()
	if avail < 0 {
		avail = 0
	}
	s.cache = newLRU(avail)
}

// pinnedBytes is the scratchpad space unavailable to the ct cache.
func (s *Simulator) pinnedBytes() int64 {
	return s.Inst.TempDataBytes() + s.Inst.EvkBytesMax()/int64(s.Inst.Dnum)
}

// opCost is the expanded hardware work of one op.
type opCost struct {
	hbm     float64 // off-chip streaming time (evk + misses)
	ntt     float64
	bconv   float64
	elt     float64
	noc     float64
	hbmByte int64
	spByte  int64
}

// costOf expands one op into hardware work following Fig. 3(a).
func (s *Simulator) costOf(op workload.Op) opCost {
	in := s.Inst
	hw := s.HW
	n := float64(in.N())
	logN := float64(in.LogN)
	nPE := float64(hw.PEs())
	freq := hw.FreqHz
	l := op.Level
	k := in.K()
	beta := in.Beta(l)
	rows := float64(k + l + 1)
	lrows := float64(l + 1)

	// One residue-polynomial NTT occupies the NTTU pool for an epoch of
	// N·logN/(2·nPE) cycles (Section 5.1).
	epoch := n * logN / (2 * nPE * freq)
	// MMAU MACs run lsub lanes per PE per cycle (Eq. 11).
	macTime := func(macs float64) float64 { return macs / (nPE * float64(hw.LSub) * freq) }
	eltTime := func(ops float64) float64 { return ops / (nPE * freq) }

	var c opCost
	switch op.Kind {
	case workload.HMult, workload.HRot:
		// evk streaming dominates off-chip traffic (Section 3.3).
		c.hbmByte += in.EvkBytes(l)
		// (i)NTT: the (β+2)·(k+ℓ+1) residue-polynomial transforms of the
		// key-switching pipeline plus the tensor/automorphism input iNTT.
		nPolyNTT := float64(beta+2)*rows + lrows
		c.ntt = nPolyNTT * epoch * s.rplpPenalty(nPolyNTT)
		// BConv: ModUp of β slices (α rows → k+ℓ+1-α rows each) and two
		// ModDowns (k rows → ℓ+1 rows).
		alpha := float64(in.Alpha())
		modUp := float64(beta) * alpha * (rows - alpha) * n
		modDown := 2 * float64(k) * lrows * n
		c.bconv = macTime((modUp + modDown) * 1.1) // +10% for the ModMult first stage
		// Element-wise: tensor product (HMult) and evk multiply-accumulate.
		elt := 2 * float64(beta) * rows * n * 2
		if op.Kind == workload.HMult {
			elt += 4 * lrows * n
		}
		c.elt = eltTime(elt)
		// NoC: two exchange rounds per residue-poly NTT, plus the
		// automorphism permutation for HRot (Section 5.5).
		nocBytes := nPolyNTT * 2 * n * 8
		if op.Kind == workload.HRot {
			nocBytes += 2 * lrows * n * 8
		}
		if hw.RPLP {
			// Coefficient-wise BConv crosses PE boundaries under rPLP.
			nocBytes += float64(beta)*rows*n*8 + 2*float64(k)*n*8
		}
		c.noc = nocBytes / hw.NoCBisectionBytesPerSec
	case workload.HRescale:
		c.ntt = lrows * epoch
		c.elt = eltTime(2 * lrows * n)
		c.noc = lrows * 2 * n * 8 / hw.NoCBisectionBytesPerSec
	case workload.PMult, workload.PAdd:
		// Plaintext operands are stored compressed (one coefficient row)
		// and expanded on-chip by the NTTUs; see DESIGN.md.
		c.ntt = lrows * epoch
		c.elt = eltTime(2 * lrows * n)
	case workload.HAdd, workload.CMult, workload.CAdd:
		c.elt = eltTime(2 * lrows * n)
	case workload.ModRaise:
		L := float64(in.L + 1)
		c.ntt = (2 + 2*L) * epoch
		c.elt = eltTime(2 * L * n)
	}

	// SW cache: operand ciphertexts and plaintext diagonals.
	for _, id := range op.CtIn {
		key := ctKey(id)
		size := in.CtBytes(l)
		if s.cache.touch(key, size) {
			c.spByte += size
		} else {
			c.hbmByte += size
		}
	}
	if op.PtID != 0 {
		key := ptKey(op.PtID)
		size := int64(in.N()) * 8 // compressed single-row plaintext
		if !s.cache.touch(key, size) {
			c.hbmByte += size
		}
	}
	if op.CtOut != 0 {
		s.cache.touch(ctKey(op.CtOut), in.CtBytes(l))
	}

	c.hbm = float64(c.hbmByte) / hw.HBMBytesPerSec
	// Scratchpad traffic: every compute word read+written once.
	c.spByte += int64((c.ntt + c.bconv + c.elt) * nPE * freq * 8 * 2)
	return c
}

// rplpPenalty models the load imbalance of residue-polynomial-level
// parallelism (Section 4.3): with work quantized to whole residue
// polynomials across RPLPClusters vector clusters, the last wave runs
// partially idle; BTS's CLP keeps all PEs busy regardless of ℓ.
func (s *Simulator) rplpPenalty(nPoly float64) float64 {
	if !s.HW.RPLP || nPoly <= 0 {
		return 1
	}
	g := float64(s.HW.RPLPClusters)
	if g <= 0 {
		g = 16
	}
	waves := math.Ceil(nPoly / g)
	return waves * g / nPoly
}

func ctKey(id int) int64 { return int64(id) }
func ptKey(id int) int64 { return -int64(id) }

// computeTime composes the on-chip phases of one op: the NTTU stream either
// overlaps BConv with iNTT in l_sub batches (Eq. 11) or serializes them (the
// Fig. 9 ablation); element-wise units and the NoC run in parallel pools.
func (s *Simulator) computeTime(c opCost) float64 {
	var nttStream float64
	if s.HW.BConvOverlap {
		nttStream = math.Max(c.ntt+0.25*c.bconv, c.bconv)
	} else {
		nttStream = c.ntt + c.bconv
	}
	return math.Max(math.Max(nttStream, c.elt), c.noc)
}

// RunTrace executes a trace and returns its statistics. The SW cache
// persists across ops (and is reset between RunTrace calls).
func (s *Simulator) RunTrace(tr workload.Trace) Stats {
	s.resetCache()
	s.Timeline = s.Timeline[:0]
	st := Stats{PerKind: map[workload.OpKind]float64{}}
	// Two pipelined timelines: the scheduler prefetches evks and operand
	// ciphertexts ahead of compute (Section 6.2), so memory streaming and
	// on-chip compute advance as independent clocks; an op completes when
	// both have caught up.
	var hbmClock, computeClock, prevEnd float64
	for _, op := range tr.Ops {
		hits0, miss0 := s.cache.hits, s.cache.misses
		c := s.costOf(op)
		hbmClock += c.hbm
		computeClock += s.computeTime(c)
		end := math.Max(hbmClock, computeClock)
		total := end - prevEnd
		start := prevEnd
		prevEnd = end
		st.Time = end
		st.PerKind[op.Kind] += total
		if op.Boot {
			st.BootTime += total
		}
		st.HBMBytes += c.hbmByte
		st.CacheHits += s.cache.hits - hits0
		st.CacheMiss += s.cache.misses - miss0
		st.BusyHBM += c.hbm
		st.BusyNTTU += c.ntt
		st.BusyBConv += c.bconv
		st.BusyElt += c.elt
		st.BusyNoC += c.noc
		st.ScratchBusy += float64(c.spByte) / s.HW.ScratchpadBytesPerSec

		if s.RecordTimeline {
			s.recordOp(op, c, start)
		}
	}
	st.EnergyJ = s.energy(st)
	return st
}

// OpBreakdown returns the raw cost of a single op with all ciphertext
// operands resident (used by the Fig. 8 single-HMult study).
func (s *Simulator) OpBreakdown(op workload.Op) (hbm, ntt, bconv, elt, noc, total float64) {
	s.resetCache()
	for _, id := range op.CtIn {
		s.cache.touch(ctKey(id), s.Inst.CtBytes(op.Level))
	}
	c := s.costOf(op)
	total = math.Max(c.hbm, s.computeTime(c))
	return c.hbm, c.ntt, c.bconv, c.elt, c.noc, total
}

func (s *Simulator) recordOp(op workload.Op, c opCost, start float64) {
	occ := s.Inst.TempDataBytes() + s.Inst.EvkBytesMax() + s.cache.used
	if occ > s.HW.ScratchpadBytes {
		occ = s.HW.ScratchpadBytes
	}
	name := op.Kind.String()
	add := func(phase string, d float64, at float64) float64 {
		if d <= 0 {
			return at
		}
		s.Timeline = append(s.Timeline, TimelineEvent{
			Op: name, Phase: phase, Start: at, End: at + d, ScratchpadBytes: occ,
		})
		return at + d
	}
	add("evk-load", c.hbm, start)
	t := add("NTT", c.ntt, start)
	t = add("BConv", c.bconv, t)
	add("elementwise", c.elt, t)
	add("NoC", c.noc, start)
}

// energy charges component power while busy, HBM energy per byte, and a
// static floor (Table 3 constants via arch.DefaultPower).
func (s *Simulator) energy(st Stats) float64 {
	p := s.PW
	e := st.BusyNTTU*p.NTTUW +
		st.BusyBConv*p.BConvW +
		st.BusyElt*p.EltW +
		st.BusyNoC*p.NoCW +
		st.ScratchBusy*p.ScratchW +
		float64(st.HBMBytes)*p.HBMPJPerByte*1e-12 +
		st.Time*p.StaticW
	return e
}

// AmortizedMultPerSlot runs the Eq. 8 microbenchmark and returns
// T_mult,a/slot in seconds.
func (s *Simulator) AmortizedMultPerSlot(shape workload.BootstrapShape) (float64, error) {
	usable := workload.UsableLevels(s.Inst, shape)
	if usable < 1 {
		return 0, fmt.Errorf("sim: instance %s cannot bootstrap (L=%d < L_boot=%d)",
			s.Inst.Name, s.Inst.L, shape.Levels())
	}
	tr := workload.AmortizedMultTrace(s.Inst, shape)
	st := s.RunTrace(tr)
	return st.Time / float64(usable) * 2 / float64(s.Inst.N()), nil
}

// MinBoundMultPerSlot evaluates the Section 3.4 minimum-bound model: all
// compute hidden under evk streaming, all cts on-chip — only key-switching
// traffic is charged (the assumptions behind Fig. 2).
func MinBoundMultPerSlot(inst params.Instance, shape workload.BootstrapShape, hbmBytesPerSec float64) (float64, error) {
	usable := inst.L - shape.Levels()
	if usable < 1 {
		return 0, fmt.Errorf("sim: instance %s cannot bootstrap", inst.Name)
	}
	tr := workload.BootstrapTrace(inst, shape)
	tboot := 0.0
	for _, op := range tr.Ops {
		if op.Kind.UsesEvk() {
			tboot += float64(inst.EvkBytes(op.Level)) / hbmBytesPerSec
		}
	}
	sum := tboot
	for l := 1; l <= usable; l++ {
		sum += float64(inst.EvkBytes(l)) / hbmBytesPerSec
	}
	return sum / float64(usable) * 2 / float64(inst.N()), nil
}
