// Command btsbench regenerates every table and figure of the BTS paper's
// evaluation section and prints them as text tables (the same rows the root
// benchmark harness reports). Usage:
//
//	btsbench [-experiment all|table1|fig1|fig2|fig3b|table3|table4|fig6|fig7|fig8|fig9|fig10|table5|table6|slowdown|speedup|hoisting|sharding|table2|serve|dag] [-workers N]
//	         [-clients K] [-duration 5s] [-full] [-cpuprofile f] [-memprofile f]
//
// Several experiments are special: instead of replaying the paper's model
// they measure the host machine and are therefore excluded from "all".
//
// The speedup experiment runs the real CKKS library (NTT, HMult
// key-switching, HRot, HRescale and a reduced-degree bootstrap) serially and
// then on the limb-parallel execution engine with -workers goroutines,
// reporting the measured serial-vs-parallel speedup curve.
//
// The hoisting experiment times naive per-rotation key-switching against
// hoisted rotations of one ciphertext and reports the measured baby/giant
// cost ratio that the BSGS split weight approximates, printing a JSON report
// (archived by CI as BENCH_hoisting.json) and exiting non-zero if hoisted
// rotations are not bit-identical to Rotate.
//
// The sharding experiment measures the 2-D (limb × coefficient-block)
// sharded dispatch against pure limb-parallel dispatch on low-level
// (level ≤ 3) NTT, element-wise, automorphism and rescale kernels, printing
// a JSON report (archived by CI as BENCH_sharding.json) and exiting non-zero
// if any configuration is not bit-identical to serial, or if the
// NTT/element-wise speedup misses the 2x bar on the levels where sharding
// has 2x of parallel headroom (limbs ≤ cores/2 — all of level ≤ 3 on an
// 8-core host).
//
// The table2 experiment measures the Montgomery-domain ring core against the
// retained Barrett reference kernels (with ns/butterfly and effective GB/s
// per transform) and runs the S=3 factored bootstrap, with the internal/sim
// calibration cross-check of its measured op mix, followed by a
// 1/2/4/8-worker scaling table (-scaling=false skips the scaling re-runs).
// It prints a JSON report (archived by CI as BENCH_table2.json) and exits
// non-zero if the geomean Montgomery speedup misses 1.3x, attached telemetry
// costs the same kernels more than 2%, precision leaves the budget at any
// worker count, no working level remains after refresh, or — full mode on a
// >= 8-CPU host — the 8-worker bootstrap is not >= 4x faster than the same
// run's 1-worker row. By default it runs a scaled-down LogN=12 smoke
// instance; -full selects the real N=2^17 Table 2 paper instance (minutes of
// runtime, several GiB of keys — the bench workflow's job, not the PR
// gate's). The fused radix-4 transform's wall-clock comparison against the
// radix-2 network is `go test -bench NTTKernel ./internal/ring`.
//
// The -cpuprofile/-memprofile flags write pprof profiles for any experiment
// (the heap profile is captured after the experiment returns). Profiles are
// only flushed on gate-passing runs: a failing gate exits immediately.
//
// The serve experiment is the serving-runtime load generator: it stands up
// an in-process btsserve daemon on loopback, drives it with -clients
// concurrent tenants for -duration (each looping a rotate→multiply→rescale→
// add job over wire-format ciphertexts), decrypts and verifies the final
// result of every tenant, and prints a JSON throughput/latency report
// (jobs/s, HE ops/s, p50/p90/p99 latency) to stdout.
//
// The dag experiment compares a chained rotation-fan pipeline submitted as
// one register-addressed DAG job against the per-op round-trip equivalent:
// it gates on the DAG run moving ≥5x fewer wire bytes, spending ≥1.5x fewer
// key-switch decompositions (scheduler auto-hoisting), and producing a
// bit-identical ciphertext. Like serve, it accepts -addr to drive an
// already-running daemon.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"bts/internal/arch"
	"bts/internal/eval"
	"bts/internal/workload"
)

func main() {
	which := flag.String("experiment", "all", "experiment to run (all, table1, fig1, ... slowdown, speedup, serve)")
	workers := flag.Int("workers", runtime.NumCPU(), "execution-engine worker count for -experiment speedup/serve (0 = serial)")
	clients := flag.Int("clients", 4, "concurrent tenants for -experiment serve")
	duration := flag.Duration("duration", 5*time.Second, "load duration for -experiment serve")
	serveAddr := flag.String("addr", "", "for -experiment serve: drive an already-running btsserve at this address instead of an in-process daemon")
	full := flag.Bool("full", false, "for -experiment table2: run the real N=2^17 paper instance instead of the scaled-down smoke instance")
	scaling := flag.Bool("scaling", true, "for -experiment table2: append the 1/2/4/8-worker bootstrap scaling table (disable to time a single worker count only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when the experiment completes")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	experiments := []struct {
		name string
		run  func()
	}{
		{"table1", table1}, {"fig1", fig1}, {"fig2", fig2}, {"fig3b", fig3b},
		{"table3", table3}, {"table4", table4}, {"fig6", fig6}, {"fig7", fig7},
		{"fig8", fig8}, {"fig9", fig9}, {"fig10", fig10}, {"table5", table5},
		{"table6", table6}, {"slowdown", slowdown},
	}
	ran := false
	for _, e := range experiments {
		if *which == "all" || *which == e.name {
			fmt.Printf("\n===== %s =====\n", e.name)
			e.run()
			ran = true
		}
	}
	if *which == "speedup" {
		fmt.Printf("\n===== speedup =====\n")
		speedup(*workers)
		ran = true
	}
	if *which == "hoisting" {
		hoisting(*workers)
		ran = true
	}
	if *which == "sharding" {
		sharding(*workers)
		ran = true
	}
	if *which == "table2" {
		table2Bench(*workers, *full, *scaling)
		ran = true
	}
	if *which == "serve" {
		serveBench(*clients, *duration, *workers, *serveAddr)
		ran = true
	}
	if *which == "dag" {
		dagBench(*workers, *serveAddr)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

func table1() {
	var cells [][]string
	for _, r := range eval.Table1() {
		cells = append(cells, []string{r.Platform, fmt.Sprint(r.LogN), fmt.Sprint(r.Slots),
			fmt.Sprint(r.Bootstrap), r.Parallelism, fmt.Sprintf("%.3g", r.MultPerSec)})
	}
	fmt.Print(eval.FormatTable([]string{"platform", "logN", "slots", "boot", "parallelism", "FHE mult/s"}, cells))
}

func fig1() {
	res := eval.Fig1()
	for _, logN := range []int{15, 16, 17, 18} {
		rows := res[logN]
		fmt.Printf("N=2^%d (max dnum %d):\n", logN, rows[len(rows)-1].Dnum)
		var cells [][]string
		for _, r := range rows {
			if r.Dnum > 8 && r.Dnum%8 != 0 && r.Dnum != rows[len(rows)-1].Dnum {
				continue // thin out the print; the data is dense
			}
			cells = append(cells, []string{fmt.Sprint(r.Dnum), fmt.Sprint(r.MaxLevel),
				fmt.Sprintf("%.0f", float64(r.EvkSingleBytes)/(1<<20)),
				fmt.Sprintf("%.2f", float64(r.EvkAggBytes)/(1<<30))})
		}
		fmt.Print(eval.FormatTable([]string{"dnum", "max L", "evk (MiB)", "aggregate evks (GiB)"}, cells))
	}
}

func fig2() {
	rows := eval.Fig2()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Lambda < rows[j].Lambda })
	var cells [][]string
	for _, r := range rows {
		if !r.Feasible || r.Lambda > 250 || r.Lambda < 70 {
			continue
		}
		cells = append(cells, []string{fmt.Sprintf("2^%d", r.LogN), fmt.Sprint(r.L),
			fmt.Sprint(r.Dnum), fmt.Sprintf("%.1f", r.Lambda), fmt.Sprintf("%.1f", r.TmultASlotNs)})
	}
	fmt.Print(eval.FormatTable([]string{"N", "L", "dnum", "λ", "min-bound Tmult,a/slot (ns)"}, cells))
}

func fig3b() {
	var cells [][]string
	for _, r := range eval.Fig3b() {
		cells = append(cells, []string{fmt.Sprint(r.Dnum), fmt.Sprintf("%.1f", r.BConvPct),
			fmt.Sprintf("%.1f", r.NTTPct), fmt.Sprintf("%.1f", r.INTTPct), fmt.Sprintf("%.1f", r.OthersPct)})
	}
	fmt.Print(eval.FormatTable([]string{"dnum", "BConv %", "NTT %", "iNTT %", "others %"}, cells))
}

func table3() {
	var cells [][]string
	for _, c := range eval.Table3() {
		cells = append(cells, []string{c.Name, fmt.Sprintf("%.2f", c.AreaMM2), fmt.Sprintf("%.2f", c.PowerW)})
	}
	cells = append(cells, []string{"Total", fmt.Sprintf("%.1f", arch.TotalArea()), fmt.Sprintf("%.1f", arch.TotalPower())})
	fmt.Print(eval.FormatTable([]string{"component", "area mm²", "power W"}, cells))
	fmt.Printf("minNTTU (Eq.10, N=2^17, dnum=1) = %.0f → BTS provisions 2048\n",
		arch.MinNTTU(1<<17, 1, 1.2e9, 1e12))
}

func table4() {
	var cells [][]string
	for _, r := range eval.Table4() {
		cells = append(cells, []string{r.Name, fmt.Sprint(r.L), fmt.Sprint(r.Dnum),
			fmt.Sprintf("%.0f", r.LogPQ), fmt.Sprintf("%.1f", r.Lambda),
			fmt.Sprintf("%.0f", r.TempDataMB), fmt.Sprintf("%.0f", r.EvkMB), fmt.Sprintf("%.0f", r.CtMB)})
	}
	fmt.Print(eval.FormatTable([]string{"instance", "L", "dnum", "logPQ", "λ", "temp MB", "evk MB", "ct MB"}, cells))
}

func fig6() {
	var cells [][]string
	for _, r := range eval.Fig6() {
		cells = append(cells, []string{r.System, fmt.Sprintf("%.1f", r.TmultASlotNs), fmt.Sprintf("%.0fx", r.SpeedupVsCPU)})
	}
	fmt.Print(eval.FormatTable([]string{"system", "Tmult,a/slot (ns)", "speedup vs CPU"}, cells))
}

func fig7() {
	var cells [][]string
	for _, r := range eval.Fig7a() {
		cells = append(cells, []string{r.Instance, fmt.Sprintf("%.1f", r.MinBoundNs),
			fmt.Sprintf("%.1f", r.With512MNs), fmt.Sprintf("%.1f", r.With2GNs)})
	}
	fmt.Print(eval.FormatTable([]string{"instance", "min bound ns", "512MB ns", "2GB ns"}, cells))
	cells = nil
	for _, r := range eval.Fig7b() {
		cells = append(cells, []string{r.App, fmt.Sprintf("%.1f%%", r.BootstrapPct)})
	}
	fmt.Print(eval.FormatTable([]string{"application", "bootstrapping share"}, cells))
}

func fig8() {
	res := eval.Fig8()
	fmt.Printf("HMult on INS-1: total %.1f µs; HBM %.0f%% / NTTU %.0f%% / BConvU %.0f%% busy\n",
		res.TotalUs, res.HBMUtilPct, res.NTTUUtilPct, res.BConvUtilPct)
	for _, ev := range res.Events {
		fmt.Printf("  %-12s %8.1f .. %8.1f µs\n", ev.Phase, ev.Start*1e6, ev.End*1e6)
	}
}

func fig9() {
	var cells [][]string
	for _, r := range eval.Fig9() {
		cells = append(cells, []string{r.Config, fmt.Sprintf("%.3f", r.TmultASlotUs), fmt.Sprintf("%.0fx", r.Speedup)})
	}
	fmt.Print(eval.FormatTable([]string{"configuration", "Tmult,a/slot µs", "speedup vs Lattigo"}, cells))
}

func fig10() {
	var cells [][]string
	for _, r := range eval.Fig10() {
		ks := r.PerKindMs[workload.HMult] + r.PerKindMs[workload.HRot]
		cells = append(cells, []string{fmt.Sprint(r.ScratchpadMB), fmt.Sprintf("%.1f", r.BootstrapMs),
			fmt.Sprintf("%.1f", ks), fmt.Sprintf("%.1f", r.PerKindMs[workload.PMult]), fmt.Sprintf("%.3g", r.EDAP)})
	}
	fmt.Print(eval.FormatTable([]string{"scratchpad MB", "bootstrap ms", "HMult+HRot ms", "PMult ms", "EDAP"}, cells))
}

func table5() {
	var cells [][]string
	for _, r := range eval.Table5() {
		cells = append(cells, []string{r.System, fmt.Sprintf("%.1f", r.MsPerIter), fmt.Sprintf("%.0fx", r.Speedup)})
	}
	fmt.Print(eval.FormatTable([]string{"system", "HELR ms/iter", "speedup"}, cells))
}

func table6() {
	var cells [][]string
	for _, r := range eval.Table6() {
		cells = append(cells, []string{r.App, r.System, fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%.0fx", r.Speedup), fmt.Sprint(r.Bootstraps)})
	}
	fmt.Print(eval.FormatTable([]string{"application", "system", "time s", "speedup", "#boots"}, cells))
}

func slowdown() {
	var cells [][]string
	for _, r := range eval.SlowdownVsPlain() {
		cells = append(cells, []string{r.App, fmt.Sprintf("%.4f", r.FHESec),
			fmt.Sprintf("%.5f", r.PlainSec), fmt.Sprintf("%.0fx", r.Slowdown)})
	}
	fmt.Print(eval.FormatTable([]string{"application", "FHE on BTS s", "plain CPU s", "slowdown"}, cells))
}
