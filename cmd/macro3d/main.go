// Command macro3d runs the physical-design flows and the paper's
// experiments from the command line.
//
// Usage:
//
//	macro3d -flow 2d|macro3d|s2d|bfs2d|c2d [-config small|large] [-seed N]
//	macro3d -experiment table1|table2|table3|isoperf|flowtrace [-seed N]
//	macro3d -experiment table1 -timeout 2m -keep-going
//	macro3d -experiment table2 -cpuprofile cpu.prof -memprofile mem.prof
//	macro3d -experiment table1 -cache-dir /tmp/stash   # populate, then re-run to resume
//	macro3d -flow macro3d -resume                      # cache under .macro3d-stash
//
// -timeout bounds the whole invocation (flows are cancelled at the
// next stage boundary); -keep-going lets multi-column experiments
// print the surviving columns when one flow fails. On a flow failure
// the stage diagnostics (flow, stage, seed, attempt, cause) are
// printed to stderr and the exit status is non-zero.
//
// -cache-dir enables the content-addressed stage cache: completed
// place/route/sign-off stages are snapshotted, and a later run with
// the same inputs restores them instead of recomputing (results are
// bit-identical either way). -resume is shorthand that defaults the
// directory to .macro3d-stash; -cache-verify re-runs cached stages
// and fails if the snapshot does not match bit-for-bit.
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// whole run (the memory profile is a heap snapshot taken at exit, after
// a final GC). Inspect them with `go tool pprof`. All file outputs
// (-events, -metrics-out, profiles) are written to a temporary file in
// the destination directory and renamed into place on success, so a
// crashed or failed write never leaves a truncated file behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"macro3d"
)

// defaultCacheDir is where -resume keeps snapshots when -cache-dir is
// not given.
const defaultCacheDir = ".macro3d-stash"

func main() {
	// "macro3d serve" is the daemon mode: a JSON-over-HTTP job API in
	// front of a bounded worker pool sharing one stage cache.
	if len(os.Args) >= 2 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	// "macro3d harden" hardens a sub-block into a reusable abstract
	// and optionally instantiates it as a hierarchical array.
	if len(os.Args) >= 2 && os.Args[1] == "harden" {
		os.Exit(hardenMain(os.Args[2:]))
	}
	// "macro3d trace-report" analyzes an execution trace (or records
	// one) and prints the parallelism bottleneck report.
	if len(os.Args) >= 2 && os.Args[1] == "trace-report" {
		os.Exit(traceReportMain(os.Args[2:]))
	}
	// Cleanups (profile flushes, event-stream commits) must run even on
	// a failing exit, so the exit status is decided after realMain
	// returns.
	os.Exit(realMain())
}

// atomicFile writes to a temporary file next to the destination and
// renames it into place on Commit, so readers never observe a partial
// file and a failed run never clobbers a previous good output.
type atomicFile struct {
	*os.File
	path string
	done bool
}

func createAtomic(path string) (*atomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &atomicFile{File: f, path: path}, nil
}

// Commit syncs, closes and renames the temporary file onto the
// destination. Any failure removes the temporary file.
func (a *atomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	err := a.File.Sync()
	if cerr := a.File.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(a.File.Name())
		return err
	}
	if err := os.Rename(a.File.Name(), a.path); err != nil {
		os.Remove(a.File.Name())
		return err
	}
	return nil
}

// Abort discards the temporary file, leaving any previous destination
// file untouched.
func (a *atomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.File.Close()
	os.Remove(a.File.Name())
}

// cleanup is one teardown step; errors surface on stderr and force a
// non-zero exit.
type cleanup struct {
	name string
	fn   func() error
}

func realMain() (code int) {
	var (
		flow          = flag.String("flow", "", "run one flow: 2d, macro3d, s2d, bfs2d, c2d")
		experiment    = flag.String("experiment", "", "run an experiment: table1, table2, table3, isoperf, flowtrace, sweepblockage, sweeppitch, heterotech")
		config        = flag.String("config", "small", "tile configuration: small, large or tiny")
		seed          = flag.Uint64("seed", 1, "deterministic seed")
		jobs          = flag.Int("j", 0, "worker count of the parallel placement phases and routing net prep (0 = all CPUs, 1 = inline; routing waves are always serial; results are bit-identical at any setting)")
		metals        = flag.Int("macrodiemetals", 6, "macro-die metal layers (3D flows)")
		array         = flag.Int("array", 0, "after -flow 2d/macro3d: verify an N×N abutted tile array")
		timeout       = flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
		keepGoing     = flag.Bool("keep-going", false, "in table experiments, skip failed columns and print the partial table")
		cacheDir      = flag.String("cache-dir", "", "content-addressed stage cache directory: snapshots of completed stages skip recomputation on later runs")
		resume        = flag.Bool("resume", false, "resume from cached stage snapshots (implies -cache-dir "+defaultCacheDir+" when unset)")
		cacheVerify   = flag.Bool("cache-verify", false, "paranoia mode: re-run cached stages and fail unless the snapshot matches bit-for-bit")
		cacheMax      = flag.Int64("cache-max-bytes", 0, "stage cache byte budget: evict least-recently-used snapshots to stay under this size (0 = unlimited)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		events        = flag.String("events", "", "write the observability JSONL event stream (spans, metric samples, fault tags) to this file")
		obsAddr       = flag.String("obs-addr", "", "serve live observability endpoints (/metrics, /metrics.json, /debug/vars, /debug/pprof/) on this address, e.g. :9090 or 127.0.0.1:0")
		metricsOut    = flag.String("metrics-out", "", "write a final Prometheus text snapshot of the run's metrics to this file")
		obsLinger     = flag.Duration("obs-linger", 0, "with -obs-addr: keep serving this long after a successful run (live inspection, smoke tests)")
		traceOut      = flag.String("trace", "", "record the engines' per-worker execution timeline and write it as Chrome trace-event JSON (Perfetto / chrome://tracing; analyze with 'macro3d trace-report -in')")
		analyticPlace = flag.Bool("analytic-place", false, "electrostatics-style analytical global placer (WA wirelength + Poisson density, die-aware F2F-bump weighting): deterministic at any -j but NOT bit-identical to the default quadratic placer; HPWL no worse on the reference tiles (DESIGN.md §16)")
	)
	flag.Parse()

	if *flow == "" && *experiment == "" {
		flag.Usage()
		return 2
	}

	// Cleanups run last-registered-first on every exit path, so a
	// failing run still flushes profiles, commits the event stream and
	// writes the metrics snapshot; a cleanup failure itself makes the
	// exit status non-zero.
	var cleanups []cleanup
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			if err := cleanups[i].fn(); err != nil {
				fmt.Fprintf(os.Stderr, "macro3d: %s: %v\n", cleanups[i].name, err)
				if code == 0 {
					code = 1
				}
			}
		}
	}()

	if *cpuProfile != "" {
		f, err := createAtomic(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			fmt.Fprintln(os.Stderr, "macro3d: -cpuprofile:", err)
			return 1
		}
		cleanups = append(cleanups, cleanup{"-cpuprofile", func() error {
			pprof.StopCPUProfile()
			return f.Commit()
		}})
	}
	if *memProfile != "" {
		path := *memProfile
		cleanups = append(cleanups, cleanup{"-memprofile", func() error {
			f, err := createAtomic(path)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Abort()
				return err
			}
			return f.Commit()
		}})
	}

	// Any observability flag turns recording on; with all of them off
	// rec stays nil and the flows run with observability disabled (the
	// zero-overhead default — results are byte-identical either way).
	var rec *macro3d.ObsRecorder
	if *events != "" || *obsAddr != "" || *metricsOut != "" {
		rec = macro3d.NewObsRecorder()
	}
	if *events != "" {
		f, err := createAtomic(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -events:", err)
			return 1
		}
		rec.SetSink(f)
		cleanups = append(cleanups, cleanup{"-events", func() error {
			// A cleanly flushed stream is committed even when the run
			// failed (its events are the diagnostics); a flush error
			// discards the temp file and fails the invocation.
			if err := rec.Close(); err != nil {
				f.Abort()
				return err
			}
			return f.Commit()
		}})
	}
	if *metricsOut != "" {
		path := *metricsOut
		cleanups = append(cleanups, cleanup{"-metrics-out", func() error {
			f, err := createAtomic(path)
			if err != nil {
				return err
			}
			if err := rec.Registry().WritePrometheus(f); err != nil {
				f.Abort()
				return err
			}
			return f.Commit()
		}})
	}
	// Like observability, tracing is off (nil, near-zero overhead) by
	// default; results are byte-identical with it on.
	var tracer *macro3d.ExecTracer
	if *traceOut != "" {
		tracer = macro3d.NewExecTracer()
		path := *traceOut
		cleanups = append(cleanups, cleanup{"-trace", func() error {
			f, err := createAtomic(path)
			if err != nil {
				return err
			}
			if err := tracer.WriteChrome(f); err != nil {
				f.Abort()
				return err
			}
			return f.Commit()
		}})
	}
	var obsSrv *macro3d.ObsServer
	if *obsAddr != "" {
		srv, err := rec.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -obs-addr:", err)
			return 1
		}
		obsSrv = srv
		cleanups = append(cleanups, cleanup{"-obs-addr", obsSrv.Close})
		fmt.Fprintf(os.Stderr, "macro3d: observability endpoint at %s/metrics (also /metrics.json, /debug/vars, /debug/pprof/)\n", obsSrv.URL())
	}

	cdir := *cacheDir
	if cdir == "" && *resume {
		cdir = defaultCacheDir
	}
	if *cacheVerify && cdir == "" {
		fmt.Fprintln(os.Stderr, "macro3d: -cache-verify needs -cache-dir or -resume")
		return 2
	}
	var cache *macro3d.StageCache
	if cdir != "" {
		var err error
		if cache, err = macro3d.OpenStageCacheLimited(cdir, *cacheMax); err != nil {
			fmt.Fprintln(os.Stderr, "macro3d: -cache-dir:", err)
			return 1
		}
		cleanups = append(cleanups, cleanup{"stage cache", func() error {
			printCacheSummary(cache)
			return nil
		}})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, *flow, *experiment, *config, *seed, *jobs, *metals, *array, *keepGoing, rec, tracer, cache, *cacheVerify, *analyticPlace); err != nil {
		printFailure(err)
		return 1
	}
	if obsSrv != nil && *obsLinger > 0 {
		fmt.Fprintf(os.Stderr, "macro3d: run complete; serving observability for %v (Ctrl-C to stop)\n", *obsLinger)
		select {
		case <-ctx.Done():
		case <-time.After(*obsLinger):
		}
	}
	return 0
}

// printCacheSummary renders one run's cache traffic, including the
// duplicate-put races a shared cache absorbs and the hardened-abstract
// lookups (a harden hit skips an entire sub-block signoff).
func printCacheSummary(cache *macro3d.StageCache) {
	s := cache.Stats()
	fmt.Fprintf(os.Stderr, "macro3d: stage cache %s: %d hits, %d misses, %d stored (%d dup), %d evicted, %d errors, %d B read, %d B written\n",
		cache.Dir(), s.Hits, s.Misses, s.Puts, s.DupPuts, s.Evictions, s.Errors, s.BytesRead, s.BytesWritten)
	if s.HardenHits+s.HardenMisses > 0 {
		fmt.Fprintf(os.Stderr, "macro3d: hardened abstracts: %d cache hits, %d hardened fresh\n",
			s.HardenHits, s.HardenMisses)
	}
}

// printFailure renders a flow failure: StageError diagnostics when the
// error chain carries one, a plain message otherwise.
func printFailure(err error) {
	var se *macro3d.StageError
	if !errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, "macro3d:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "macro3d: flow failed")
	fmt.Fprintf(os.Stderr, "  flow    %s\n", se.Flow)
	fmt.Fprintf(os.Stderr, "  stage   %s\n", se.Stage)
	fmt.Fprintf(os.Stderr, "  seed    %d (attempt %d)\n", se.Seed, se.Attempt)
	if se.Config != "" {
		fmt.Fprintf(os.Stderr, "  config  %s\n", se.Config)
	}
	fmt.Fprintf(os.Stderr, "  cause   %v\n", se.Cause)
	var pe *macro3d.PanicError
	if errors.As(se.Cause, &pe) && len(pe.Stack) > 0 {
		fmt.Fprintf(os.Stderr, "  stack:\n%s\n", pe.Stack)
	}
	fmt.Fprintf(os.Stderr, "  (full error: %v)\n", err)
}

func tileConfig(name string) (macro3d.TileConfig, error) {
	switch name {
	case "small":
		return macro3d.SmallCache(), nil
	case "large":
		return macro3d.LargeCache(), nil
	case "tiny":
		return macro3d.TinyTile(), nil
	}
	return macro3d.TileConfig{}, fmt.Errorf("unknown config %q (want small, large or tiny)", name)
}

func run(ctx context.Context, flow, experiment, config string, seed uint64, jobs, metals, array int, keepGoing bool, rec *macro3d.ObsRecorder, tracer *macro3d.ExecTracer, cache *macro3d.StageCache, cacheVerify, analyticPlace bool) error {
	pc, err := tileConfig(config)
	if err != nil {
		return err
	}
	cfg := macro3d.FlowConfig{Piton: pc, Seed: seed, MacroDieMetals: metals, Obs: rec, Trace: tracer, Workers: jobs, Cache: cache, CacheVerify: cacheVerify,
		AnalyticPlace: analyticPlace}

	if flow != "" {
		var ppa *macro3d.PPA
		var st *macro3d.FlowState
		switch flow {
		case "2d":
			ppa, st, err = macro3d.Run2DCtx(ctx, cfg)
		case "macro3d":
			ppa, st, _, err = macro3d.RunMacro3DCtx(ctx, cfg)
		case "s2d":
			ppa, _, err = macro3d.RunS2DCtx(ctx, cfg, false)
		case "bfs2d":
			ppa, _, err = macro3d.RunS2DCtx(ctx, cfg, true)
		case "c2d":
			ppa, _, err = macro3d.RunC2DCtx(ctx, cfg)
		default:
			return fmt.Errorf("unknown flow %q", flow)
		}
		if err != nil {
			return err
		}
		printPPA(ppa)
		if array > 1 {
			if st == nil {
				return fmt.Errorf("-array requires -flow 2d or macro3d")
			}
			t, err := macro3d.New28(6)
			if err != nil {
				return err
			}
			rep, err := macro3d.VerifyTileArray(cfg, st, t, array, array)
			if err != nil {
				return err
			}
			fmt.Printf("%dx%d array: tile %.0f ps vs array %.0f ps — timing closes: %v (%d stitched nets, %d bumps)\n",
				rep.Nx, rep.Ny, rep.TilePeriod, rep.ArrayPeriod, rep.ClosesAtTile, rep.StitchedNets, rep.F2FBumps)
		}
	}

	// Experiments pick their own tiles per column; the shared config
	// carries the seed, the hardening knobs and the stage cache.
	ecfg := macro3d.FlowConfig{Seed: seed, Obs: rec, Trace: tracer, Workers: jobs, Cache: cache, CacheVerify: cacheVerify,
		AnalyticPlace: analyticPlace}

	// Table experiments return the partial table alongside the error,
	// so in keep-going mode the surviving columns still print before
	// the failure diagnostics.
	printPartial := func(format func() string, err error) error {
		if err == nil || keepGoing {
			fmt.Print(format())
		}
		return err
	}

	switch experiment {
	case "":
	case "table1":
		t, err := macro3d.RunTableIWith(ctx, ecfg, keepGoing)
		if err := printPartial(t.Format, err); err != nil {
			return err
		}
	case "table2":
		tcfg := ecfg
		tcfg.MacroDieMetals = metals
		t, err := macro3d.RunTableIIWith(ctx, tcfg, keepGoing)
		if err := printPartial(t.Format, err); err != nil {
			return err
		}
	case "table3":
		t, err := macro3d.RunTableIIIWith(ctx, ecfg, keepGoing)
		if err := printPartial(t.Format, err); err != nil {
			return err
		}
	case "isoperf":
		for _, pc := range []macro3d.TileConfig{macro3d.SmallCache(), macro3d.LargeCache()} {
			icfg := ecfg
			icfg.Piton = pc
			r, err := macro3d.RunIsoPerfWith(ctx, icfg)
			if err != nil {
				return err
			}
			fmt.Print(r.Format())
		}
	case "flowtrace":
		return flowTrace(ctx, cfg)
	case "sweepblockage":
		sw, err := macro3d.RunBlockageSweepWith(ctx, ecfg, nil, keepGoing)
		if err := printPartial(sw.Format, err); err != nil {
			return err
		}
	case "sweeppitch":
		sw, err := macro3d.RunPitchSweepWith(ctx, ecfg, nil, keepGoing)
		if err := printPartial(sw.Format, err); err != nil {
			return err
		}
	case "heterotech":
		sw, err := macro3d.RunHeteroTechSweepWith(ctx, ecfg, keepGoing)
		if err := printPartial(sw.Format, err); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

func printPPA(p *macro3d.PPA) {
	fmt.Println(p)
	fmt.Printf("  min period     %10.1f ps\n", p.MinPeriodPs)
	fmt.Printf("  power          %10.1f µW\n", p.PowerUW)
	fmt.Printf("  logic cells    %10.3f mm²\n", p.LogicCellAreaMM2)
	fmt.Printf("  metal area     %10.1f mm²\n", p.MetalAreaMM2)
	fmt.Printf("  Cpin / Cwire   %7.3f / %.3f nF\n", p.CpinNF, p.CwireNF)
	fmt.Printf("  clk skew       %10.1f ps (depth %d)\n", p.ClkSkewPs, p.ClkDepth)
	fmt.Printf("  crit path      %10.1f ps over %.2f mm\n", p.CritPathPs, p.CritPathWLmm)
	fmt.Printf("  route overflow %10d gcell-layers\n", p.RouteOverflow)
	fmt.Printf("  opt edits      %6d resized, %d buffers\n", p.Resized, p.Buffers)
}

// flowTrace regenerates Fig. 2: the Macro-3D flow's stages with the
// live statistics of each step.
func flowTrace(ctx context.Context, cfg macro3d.FlowConfig) error {
	fmt.Println("Macro-3D flow trace (paper Fig. 2):")
	fmt.Println(" step 1: per-die floorplans — macros placed on the macro die")
	ppa, st, md, err := macro3d.RunMacro3DCtx(ctx, cfg)
	if err != nil {
		return err
	}
	stats := st.Design.ComputeStats()
	fmt.Printf("   macros %d (substrate footprint after edit %.4f mm² — shrunk to filler), logic cells %d (%.2f mm²), die %.2f mm²\n",
		stats.NumMacros, stats.MacroArea/1e6, stats.NumStdCells, stats.StdCellArea/1e6,
		st.Die.Area()/1e6)
	fmt.Println(" step 2: combined BEOL + edited macro abstracts")
	fmt.Printf("   stack: %v\n", md.Combined)
	fmt.Printf("   edited macros: %d (pins remapped to _MD, footprint shrunk to filler)\n", md.EditedMacros)
	fmt.Println(" step 3: single-pass 2D P&R over the combined stack")
	fmt.Printf("   routed %.2f m, %d F2F bumps, overflow %d\n",
		ppa.TotalWLm, ppa.F2FBumps, ppa.RouteOverflow)
	fmt.Println(" step 4: separation into production layouts")
	logic, macro, err := macro3d.SeparateDies(md, st)
	if err != nil {
		return err
	}
	fmt.Printf("   logic die: %d cells, layers %v\n", logic.StdCells, logic.Layers)
	fmt.Printf("   macro die: %d macros, layers %v\n", macro.Macros, macro.Layers)
	fmt.Printf("   shared F2F bumps: %d\n", len(logic.Bumps))
	fmt.Println(" sign-off (valid for the 3D stack by construction):")
	printPPA(ppa)
	return nil
}
